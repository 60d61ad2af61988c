import warnings

import numpy as np
import pytest

from objguide import geom
from objguide.geom import (
    CONTAINS_EPS,
    DegenerateInputError,
    DetBox,
    EstimationError,
    Homography,
    LineSegment,
    QuadBox,
    _at_infinity,
    _edge_crosses,
    bbox_overlap_cells,
    canonical_quad_order,
    dehomogenize,
    dlt_homographies,
    dlt_homography,
    join,
    normalize_h,
    points_in_quads,
    project_points,
    project_quads,
    quad_iou,
    same_up_to_scale,
    unit_homographies,
)
from objguide.synth import raster_iou


def random_convex_quad(rng, lo=50.0, hi=950.0):
    """Rejection-sampled strictly convex quad inside the canvas."""
    while True:
        pts = rng.uniform(lo, hi, (4, 2))
        try:
            return QuadBox(canonical_quad_order(pts))
        except DegenerateInputError:
            continue


def contains_points(corners, points):
    """One quad's containment mask, as QuadBox.contains_points computed it."""
    p = np.asarray(points, dtype=float)
    v = np.asarray(corners, dtype=float)
    e = v[[1, 2, 3, 0]] - v
    d = p[:, None, :] - v
    cross = e[:, 0] * d[..., 1] - e[:, 1] * d[..., 0]
    return np.all(cross >= -CONTAINS_EPS, axis=1)


def corner_table(boxes):
    """Corner table (N, 4, 2) of DetBoxes or QuadBoxes, as match_pair builds it."""
    return np.array([b.corners for b in boxes]).reshape(-1, 4, 2)


def hom(x, y):
    return np.array([float(x), float(y), 1.0])


def line_through(p, q):
    """The line through two points, by join; fails on coincident points."""
    l, coincident = join(p, q)
    assert not coincident
    return l


class TestLines:
    def test_line_through_x_axis(self):
        l = line_through(hom(0, 0), hom(1, 0))
        assert same_up_to_scale(l, [0, 1, 0])

    def test_line_through_y_axis(self):
        l = line_through(hom(0, 0), hom(0, 1))
        assert same_up_to_scale(l, [1, 0, 0])

    def test_line_through_diagonal(self):
        # cross((1,1,1),(2,2,1)) = (-1, 1, 0), i.e. proportional to (1,-1,0)
        l = line_through(hom(1, 1), hom(2, 2))
        assert same_up_to_scale(l, [1, -1, 0])

    def test_coincident_points_flagged(self):
        _, coincident = join(hom(3, 4), np.array([6.0, 8.0, 2.0]))
        assert coincident

    def test_incidence_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = hom(*rng.uniform(-1000, 1000, 2))
            q = hom(*rng.uniform(-1000, 1000, 2))
            if same_up_to_scale(p, q):
                continue
            l = normalize_h(line_through(p, q))
            assert abs(l @ normalize_h(p)) < 1e-10
            assert abs(l @ normalize_h(q)) < 1e-10

    def test_stack_equals_rows(self):
        # A stack (..., 3) gives each row's own product and flag.
        rng = np.random.default_rng(3)
        a = rng.uniform(-1000, 1000, (5, 4, 3))
        b = rng.uniform(-1000, 1000, (5, 4, 3))
        b[1, 2] = -3.0 * a[1, 2]
        c, bad = join(a, b)
        assert c.shape == (5, 4, 3) and bad.shape == (5, 4)
        assert list(zip(*np.nonzero(bad))) == [(1, 2)]
        for k in np.ndindex(5, 4):
            ck, bk = join(a[k], b[k])
            assert np.array_equal(c[k], ck) and bk == bad[k]


class TestIntersect:
    def test_axes_meet_at_origin(self):
        p, identical = join(np.array([0.0, 1, 0]), np.array([1.0, 0, 0]))
        assert not identical
        assert same_up_to_scale(p, [0, 0, 1])

    def test_parallel_lines_meet_at_infinity(self):
        p, identical = join(np.array([0.0, 1, 0]), np.array([0.0, 1, -1]))
        assert not identical
        assert same_up_to_scale(p, [1, 0, 0])
        assert _at_infinity(p)

    def test_crossing_diagonals(self):
        a = line_through(hom(0, 0), hom(1, 1))
        b = line_through(hom(0, 1), hom(1, 0))
        p, identical = join(a, b)
        assert not identical
        assert np.allclose(p[:2] / p[2], [0.5, 0.5])

    def test_identical_lines_flagged(self):
        _, identical = join(np.array([1.0, 2, 3]), np.array([2.0, 4, 6]))
        assert identical


class TestHomography:
    def test_identity_apply(self):
        h = Homography(np.eye(3))
        assert np.array_equal(h.map_points([[3, 4]]), [[3, 4]])

    def test_translation(self):
        h = Homography(np.array([[1.0, 0, 2], [0, 1, 0], [0, 0, 1]]))
        assert np.allclose(h.map_points([[0, 0]]), [[2, 0]])

    def test_normalized_storage(self):
        h = Homography(np.diag([4.0, 4.0, 4.0]))
        assert np.isclose(np.linalg.norm(h.m), 1.0)
        assert h.m.ravel()[np.argmax(np.abs(h.m))] > 0

    def test_singular_rejected(self):
        with pytest.raises(DegenerateInputError):
            Homography(np.outer([1.0, 2, 3], [1.0, 2, 3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            Homography(m)

    def test_unit_forms_mask_bad_rows(self):
        # One stack of a valid, a non-finite, a zero, a singular and a
        # negated matrix: the bad rows neither fail nor change the others.
        m = np.eye(3) + 0.1 * np.arange(9).reshape(3, 3)
        stack = np.array([m, np.full((3, 3), np.nan), np.zeros((3, 3)),
                          np.outer([1.0, 2, 3], [1.0, 2, 3]), -m])
        unit, ok = unit_homographies(stack)
        assert ok.tolist() == [True, False, False, False, True]
        assert unit[0].tobytes() == unit[4].tobytes() == Homography(m).m.tobytes()

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            h = Homography(m)
            pts = rng.uniform(-500, 500, (10, 2))
            back = h.inv.map_points(h.map_points(pts))
            assert np.abs(back - pts).max() < 1e-8


class TestProjectPoints:
    # x = 512 goes to infinity.
    H = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0 / 512, 0, 1.0]])

    def test_stack_rows_equal_single_matrices(self):
        rng = np.random.default_rng(3)
        stack = np.eye(3) + 0.2 * rng.standard_normal((6, 3, 3))
        pts = rng.uniform(-500, 500, (40, 2))
        xy, finite = project_points(stack, pts)
        assert xy.shape == (6, 40, 2) and finite.shape == (6, 40)
        for k, m in enumerate(stack):
            one_xy, one_finite = project_points(m, pts)
            assert one_xy.tobytes() == xy[k].tobytes()
            assert np.array_equal(one_finite, finite[k])

    def test_point_on_line_sent_to_infinity(self):
        pts = np.array([[512.0, 30.0], [100.0, 20.0]])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            xy, finite = project_points(self.H, pts)
        assert finite.tolist() == [False, True]
        assert np.isfinite(xy).all()
        assert np.array_equal(xy[0], [512.0, 30.0])  # the direction (x, y)
        with pytest.raises(DegenerateInputError, match="infinity"):
            Homography(self.H).map_points(pts)

    def test_dehomogenize(self):
        xy, finite = dehomogenize(np.array([[3.0, -4.0, 0.0], [0.0, 0.0, 0.0], [2.0, 6.0, 2.0]]))
        assert finite.tolist() == [False, False, True]
        assert xy.tolist() == [[3.0, -4.0], [0.0, 0.0], [1.0, 3.0]]
        xy, finite = dehomogenize(np.array([3.0, -4.0, 0.0]))
        assert xy.tolist() == [3.0, -4.0] and not finite


class TestDlt:
    def test_identity_from_identical_pairs(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        h = dlt_homography(sq, sq)
        assert np.linalg.norm(h.m - Homography(np.eye(3)).m) < 1e-10

    def test_pure_scale(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        h = dlt_homography(sq, 2 * sq)
        m = h.m / h.m[2, 2]
        assert np.allclose(m, np.diag([2.0, 2.0, 1.0]), atol=1e-9)

    def test_exact_four_point_problem(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        quad = np.array([[0, 0], [1, 0.1], [1.1, 1.2], [-0.1, 0.9]])
        h = dlt_homography(sq, quad)
        assert np.abs(h.map_points(sq) - quad).max() < 1e-8
        # Independent check: solve the raw 8x9 system without conditioning.
        a = []
        for (x, y), (u, v) in zip(sq, quad):
            a.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
            a.append([x, y, 1, 0, 0, 0, -u * x, -u * y, -u])
        _, _, vt = np.linalg.svd(np.array(a, float))
        m = vt[-1].reshape(3, 3)
        ref = Homography(m)
        assert np.linalg.norm(ref.m - h.m) < 1e-8

    def test_collinear_degenerate(self):
        src = np.array([[0, 0], [1, 1], [2, 2], [0, 1]], float)
        dst = np.array([[0, 0], [1, 0], [2, 0], [3, 1]], float)
        with pytest.raises(EstimationError):
            dlt_homography(src, dst)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_corner_raises_estimation_error(self, bad):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        dst = 2 * sq
        dst[2, 0] = bad
        with pytest.raises(EstimationError):
            dlt_homography(sq, dst)

    def test_random_exact_synthesis(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q1 = random_convex_quad(rng, 0, 2000).corners
            q2 = random_convex_quad(rng, 0, 2000).corners
            h = dlt_homography(q1, q2)
            assert np.abs(h.map_points(q1) - q2).max() < 1e-6


def _one_pair_bytes(src, dst, *args):
    """The bytes of dlt_homography's matrix, or None when it raises."""
    try:
        h = dlt_homography(src, dst, *args)
    except EstimationError:
        return None
    return h.m.tobytes()


class TestDltStack:
    """dlt_homographies against one-row calls: equal bytes, and the mask
    False exactly where the one-row call raises."""

    def test_rows_equal_one_pair_calls(self):
        rng = np.random.default_rng(17)
        src = np.array([random_convex_quad(rng).corners for _ in range(640)])
        dst = np.array([random_convex_quad(rng).corners for _ in range(640)])
        # Degenerate rows interleaved with the rest: coincident corners
        # (all four, then two), three collinear corners, non-finite corners.
        src[3::40] = src[3::40, :1]
        dst[9::40, 2] = dst[9::40, 1]
        src[15::40, 1] = (src[15::40, 0] + src[15::40, 2]) / 2
        src[21::40, 0, 0] = np.nan
        dst[27::40, 3, 1] = np.inf
        src[33::40] = -np.inf
        m, unit, ok = dlt_homographies(src, dst)
        want = [_one_pair_bytes(p, q) for p, q in zip(src, dst)]
        assert ok.tolist() == [w is not None for w in want]
        assert ok.sum() >= 500
        assert not ok[3::40].any() and not ok[9::40].any() and not ok[21::40].any()
        for k in np.flatnonzero(ok):
            assert Homography(m[k]).m.tobytes() == unit[k].tobytes() == want[k]

    def test_weighted_rows_with_points_at_infinity(self):
        # Refinement-style rows: corners plus weighted vanishing points, some
        # at infinity, so the rows' finite point counts differ.
        rng = np.random.default_rng(18)
        h = np.array([[1.1, 0.05, 30], [-0.02, 0.95, 12], [1e-4, -2e-4, 1]])
        src, dst, w = [], [], []
        for k in range(60):
            pts = rng.uniform(0, 1000, (8, 2))
            s = np.column_stack([pts, np.ones(8)])
            d = s @ h.T + np.column_stack([rng.normal(0, 1, (8, 2)), np.zeros(8)])
            v = rng.normal(size=(2, 3))
            v[: k % 3, 2] = 0.0
            src.append(np.vstack([s, v]))
            dst.append(np.vstack([d, v @ h.T]))
            w.append(np.r_[np.ones(8), rng.uniform(1, 10, 2)])
        src, dst, w = np.array(src), np.array(dst), np.array(w)
        m, unit, ok = dlt_homographies(src, dst, w)
        want = [_one_pair_bytes(p, q, r) for p, q, r in zip(src, dst, w)]
        assert ok.all() and all(v is not None for v in want)
        for k in range(len(src)):
            assert Homography(m[k]).m.tobytes() == unit[k].tobytes() == want[k]


class TestQuadIou:
    def test_identical(self):
        q = QuadBox(np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float))
        assert quad_iou(q, q) == pytest.approx(1.0)

    def test_disjoint(self):
        a = QuadBox(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
        b = QuadBox(np.array([[5, 5], [6, 5], [6, 6], [5, 6]], float))
        assert quad_iou(a, b) == 0.0

    def test_half_shifted_squares(self):
        a = QuadBox(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
        b = QuadBox(np.array([[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]], float))
        assert quad_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_convex_quad(rng)
            b = random_convex_quad(rng)
            assert abs(quad_iou(a, b) - quad_iou(b, a)) < 1e-12

    def test_against_raster_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = random_convex_quad(rng)
            b = random_convex_quad(rng)
            assert quad_iou(a, b) == pytest.approx(raster_iou(a, b, 500), abs=3 / 500)


def _reference_clip(subject, clipper):
    """Scalar Sutherland-Hodgman clip of a convex polygon by a convex polygon,
    one vertex at a time (the kernel quad_iou replaced)."""
    output = [tuple(p) for p in np.asarray(subject, dtype=float)]
    clipper = np.asarray(clipper, dtype=float)
    for k in range(len(clipper)):
        if not output:
            return np.empty((0, 2))
        a = clipper[k]
        b = clipper[(k + 1) % len(clipper)]
        ex, ey = b[0] - a[0], b[1] - a[1]

        def inside(p):
            return ex * (p[1] - a[1]) - ey * (p[0] - a[0]) >= 0.0

        def crossing(p, q):
            dx, dy = q[0] - p[0], q[1] - p[1]
            denom = ex * dy - ey * dx
            t = (ex * (a[1] - p[1]) - ey * (a[0] - p[0])) / denom
            return (p[0] + t * dx, p[1] + t * dy)

        result = []
        s = output[-1]
        for e in output:
            if inside(e):
                if not inside(s):
                    result.append(crossing(s, e))
                result.append(e)
            elif inside(s):
                result.append(crossing(s, e))
            s = e
        output = result
    return np.array(output) if output else np.empty((0, 2))


def _reference_shoelace_area(poly):
    x = poly[:, 0]
    y = poly[:, 1]
    x_next = np.concatenate((x[1:], x[:1]))
    y_next = np.concatenate((y[1:], y[:1]))
    return 0.5 * abs(float(np.dot(x, y_next) - np.dot(y, x_next)))


def _reference_quad_iou(a, b):
    """Scalar IoU of two corner arrays (4, 2); returns it and the number of
    vertices of the intersection polygon."""
    area_a = _reference_shoelace_area(a)
    area_b = _reference_shoelace_area(b)
    if area_a < 1e-12 or area_b < 1e-12:
        return 0.0, 0
    inter_poly = _reference_clip(a, b)
    if len(inter_poly) < 3:
        return 0.0, len(inter_poly)
    inter = _reference_shoelace_area(inter_poly)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0, len(inter_poly)
    return float(min(max(inter / union, 0.0), 1.0)), len(inter_poly)


def _quad_pairs(rng, n):
    """n pairs of strictly convex quads (n, 4, 2) of every relative position:
    overlapping, rotated about a shared centroid (up to octagonal
    intersections), contained either way, identical, disjoint, and axis-
    aligned boxes touching along an edge or at a corner."""
    first, second = [], []
    kind = 0
    while len(first) < n:
        a = random_convex_quad(rng, 0.0, 200.0).corners
        c = a.mean(axis=0)
        kind = (kind + 1) % 7
        if kind == 0:
            b = random_convex_quad(rng, 0.0, 200.0).corners
        elif kind == 1:
            t = rng.uniform(0.1, 1.5)
            rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            b = c + rng.uniform(0.8, 1.2) * (a - c) @ rot.T + rng.uniform(-5, 5, 2)
        elif kind == 2:
            b = c + rng.uniform(0.2, 0.95) * (a - c)
        elif kind == 3:
            a, b = c + rng.uniform(0.2, 0.95) * (a - c), a
        elif kind == 4:
            b = a.copy()
        elif kind == 5:
            b = a + 400.0 + rng.uniform(0, 100, 2)
        else:
            x0, x1 = sorted(rng.integers(0, 100, 2))
            y0, y1 = sorted(rng.integers(0, 100, 2))
            if x0 == x1 or y0 == y1:
                continue
            w, h = rng.integers(1, 50, 2)
            dy = rng.integers(-h, y1 - y0 + 1)  # the ends touch at a corner
            a = DetBox(x0, y0, x1, y1).corners
            b = DetBox(x1, y0 + dy, x1 + w, y0 + dy + h).corners
        try:
            b = QuadBox(canonical_quad_order(b)).corners
        except DegenerateInputError:
            continue
        first.append(a)
        second.append(b)
    return np.array(first, dtype=float), np.array(second, dtype=float)


class TestQuadIouReference:
    """The stacked kernel against the scalar clip-and-shoelace reference:
    equal floats, not approximately equal ones."""

    def test_bit_identical_to_scalar_reference(self):
        a, b = _quad_pairs(np.random.default_rng(13), 6000)
        ref = [_reference_quad_iou(p, q) for p, q in zip(a, b)]
        want = np.array([v for v, _ in ref])
        counts = np.bincount([n for _, n in ref], minlength=9)
        assert all(counts[n] >= 10 for n in range(3, 9)), counts
        assert (want == 0.0).sum() >= 500 and (want == 1.0).sum() >= 500
        got = quad_iou(a, b)
        assert got.shape == (len(a),)
        assert np.array_equal(got, want)

    def test_stacked_equals_one_row_calls(self):
        a, b = _quad_pairs(np.random.default_rng(14), 700)
        stacked = quad_iou(a, b)
        assert [quad_iou(p, q) for p, q in zip(a, b)] == list(stacked)
        assert [quad_iou(QuadBox(p), QuadBox(q)) for p, q in zip(a[:50], b[:50])] == list(
            stacked[:50]
        )
        assert quad_iou(a[:0], b[:0]).shape == (0,)


class TestBoxes:
    def test_detbox_validation(self):
        with pytest.raises(DegenerateInputError):
            DetBox(1, 0, 1, 5)
        with pytest.raises(DegenerateInputError):
            DetBox(0, 0, 1, 1, score=1.5)
        with pytest.raises(DegenerateInputError):
            DetBox(0, 0, np.inf, 1)
        with pytest.raises(DegenerateInputError):
            DetBox(-np.inf, 0, 1, 1)

    def test_quad_from_detbox(self):
        q = QuadBox.from_detbox(DetBox(0, 0, 2, 3, 0.7))
        assert np.allclose(q.corners, [[0, 0], [2, 0], [2, 3], [0, 3]])
        assert q.score == 0.7

    def test_nonconvex_rejected(self):
        with pytest.raises(DegenerateInputError):
            QuadBox(np.array([[0, 0], [1, 1], [1, 0], [0, 1]], float))

    def test_contains(self):
        q = QuadBox.from_detbox(DetBox(0, 0, 1, 1))
        mask = points_in_quads(q.corners[None], [[0.5, 0.5], [0, 0], [1.2, 0.5]])
        assert mask.tolist() == [[True, True, False]]

    def test_canonical_order(self):
        corners = np.array([[10, 2], [1, 1], [9, 9], [2, 11]], float)
        rng = np.random.default_rng(2)
        ref = canonical_quad_order(corners)
        for _ in range(10):
            got = canonical_quad_order(corners[rng.permutation(4)])
            assert np.allclose(got, ref)

    def test_canonical_order_stacked_equals_one_by_one(self):
        rng = np.random.default_rng(4)
        stack = rng.uniform(0, 100, (50, 4, 2))
        got = canonical_quad_order(stack)
        for quad, row in zip(stack, got):
            assert np.array_equal(canonical_quad_order(quad), row)

    def test_contains_points_equals_contains(self):
        rng = np.random.default_rng(6)
        q = random_convex_quad(rng)
        pts = np.vstack([rng.uniform(0, 1000, (200, 2)), q.corners])
        mask = points_in_quads(q.corners[None], pts)[0]
        assert list(mask) == [points_in_quads(q.corners[None], p[None])[0, 0] for p in pts]

    def test_points_in_quads_equals_one_quad_reference(self):
        rng = np.random.default_rng(16)
        box = QuadBox.from_detbox(DetBox(100, 100, 300, 200)).corners
        quads = np.array([random_convex_quad(rng).corners for _ in range(30)] + [box])
        edge = quads[:, [1, 2, 3, 0]] - quads
        # On each edge up to rounding, and off it by fractions of the slack:
        # a cross product is the edge length times the offset.
        on_edge = quads + rng.uniform(0, 1, (len(quads), 4, 1)) * edge
        length = np.linalg.norm(edge, axis=2, keepdims=True)
        normal = np.stack([edge[..., 1], -edge[..., 0]], axis=2) / length  # outward
        near = [on_edge + f * CONTAINS_EPS / length * normal for f in (0.5, 1.0, 2.0)]
        # Exactly on the box's edges, then above its top edge by a cross
        # product of 2e-10 (inside the slack) and 2e-9 (outside it).
        exact = [[200, 100], [300, 150], [200, 200], [100, 150], [200, 100 - 1e-12],
                 [200, 100 - 1e-11]]
        pts = np.vstack([
            rng.uniform(0, 1000, (300, 2)), quads.reshape(-1, 2), on_edge.reshape(-1, 2),
            *(n.reshape(-1, 2) for n in near), exact,
        ])
        got = points_in_quads(quads, pts)
        assert got.shape == (len(quads), len(pts))
        for q, row in zip(quads, got):
            assert np.array_equal(row, contains_points(q, pts))
        assert got[-1, -6:].tolist() == [True] * 5 + [False]
        # Each quad holds its own edge points half the slack outside and
        # loses those twice the slack outside.
        own = np.arange(len(quads))[:, None] * 4 + np.arange(4)
        first_near = len(pts) - len(exact) - 3 * 4 * len(quads)
        rows = np.arange(len(quads))[:, None]
        assert got[rows, first_near + own].all()
        assert not got[rows, first_near + 8 * len(quads) + own].any()
        assert points_in_quads(quads, np.zeros((0, 2))).shape == (len(quads), 0)
        assert points_in_quads(np.zeros((0, 4, 2)), pts).shape == (0, len(pts))

    def test_project_quads_equals_per_quad_projection(self):
        # x = 512 goes to infinity: one quad has a corner on that line, one
        # straddles it, the others stay finite.
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0 / 512, 0, 1.0]]))
        rng = np.random.default_rng(8)
        quads = [QuadBox.from_detbox(DetBox(*b)) for b in
                 [(0, 0, 40, 50), (472, 0, 512, 50), (500, 0, 540, 50), (100, 100, 140, 150)]]
        quads += [random_convex_quad(rng, 0.0, 400.0) for _ in range(20)]
        want = []
        for k, q in enumerate(quads):
            try:
                want.append((k, QuadBox(canonical_quad_order(h.map_points(q.corners))).corners))
            except DegenerateInputError:
                pass
        corners = np.array([q.corners for q in quads])
        with np.errstate(all="raise"):
            [valid], [proj] = project_quads(h.m[None], corners)
            stacked_valid, stacked = project_quads(np.stack([np.eye(3), h.m]), corners)
        rows = np.flatnonzero(valid)
        assert 1 not in rows
        assert list(rows) == [k for k, _ in want]
        # Images come in source corner order.
        got = canonical_quad_order(proj[rows])
        assert all(np.array_equal(a, b) for (_, a), b in zip(want, got))
        # A stack of matrices gives each matrix's own projection.
        assert stacked_valid[0].all() and np.array_equal(stacked[0], corners)
        assert np.array_equal(stacked_valid[1], valid)
        assert np.array_equal(stacked[1][rows], proj[rows])


def random_homographies(rng, n):
    """Homographies of the canvas [0, 1000]^2 in three kinds: mild
    perspective; a line sent to infinity through a canvas point, so quads
    straddle it; and nearly singular maps that flatten every quad into a
    sliver 1e-4 to 1e-9 times as wide as it is long."""
    out = []
    for k in range(n):
        m = np.eye(3)
        m[:2] += rng.normal(0.0, 0.1, (2, 3)) * [1.0, 1.0, 100.0]
        if k % 3 == 0:
            m[2, :2] = rng.normal(0.0, 2e-4, 2)
        elif k % 3 == 1:
            p = rng.uniform(100.0, 900.0, 2)
            d = rng.normal(size=2)
            d /= 500.0 * np.linalg.norm(d)
            m[2] = [d[0], d[1], -(d @ p)]
        else:
            t = rng.uniform(0.0, np.pi)
            rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            m[:2, :2] = rot @ np.diag([1.0, 10.0 ** -rng.uniform(4.0, 9.0)]) @ rot.T
        out.append(Homography(m))
    return out


def thin_rect(rng, aspect):
    """A rectangle of random position and angle, aspect times as wide as it
    is long, in positive-shoelace order."""
    t = rng.uniform(0.0, np.pi)
    u = np.array([np.cos(t), np.sin(t)])
    v = np.array([-u[1], u[0]])
    c, length = rng.uniform(300.0, 700.0, 2), rng.uniform(20.0, 200.0)
    return c + np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]) @ np.array(
        [length * u, aspect * length * v]
    )


class TestRoundKernels:
    def test_project_quads_mask_equals_angle_sort_definition(self, monkeypatch):
        rng = np.random.default_rng(31)
        hs = random_homographies(rng, 45)
        corners = np.array(
            [random_convex_quad(rng, 0.0, 1000.0).corners for _ in range(25)]
            + [thin_rect(rng, 10.0 ** -e) for e in range(2, 15)]
        )
        doubt = []
        sort = geom.canonical_quad_order
        ms = np.array([h.m for h in hs])
        with monkeypatch.context() as patch, np.errstate(all="raise"):
            patch.setattr(geom, "canonical_quad_order", lambda c: doubt.append(c) or sort(c))
            # Mild maps of ordinary quads never need the angle sort.
            project_quads(ms[::3], corners[:25])
            assert doubt == []
            valid, proj = project_quads(ms, corners)
        want = np.zeros_like(valid)
        for k, h in enumerate(hs):
            for n, q in enumerate(corners):
                try:
                    want[k, n] = bool(QuadBox(sort(h.map_points(q))).corners.size)
                except DegenerateInputError:
                    pass
        assert np.array_equal(valid, want)
        # Images come in source corner order.
        xy, _ = project_points(ms, corners)
        assert np.array_equal(proj, xy.reshape(proj.shape))
        # The images whose edge crosses do not decide, straddling and sliver
        # ones, take the angle sort and go both ways.
        [rows] = doubt
        convex = np.all(_edge_crosses(sort(rows)) > 0, axis=-1)
        assert convex.sum() >= 100 and (~convex).sum() >= 100

    @pytest.mark.parametrize("na,nb", [(50, 0), (0, 9), (50, 1), (50, 63), (50, 64), (50, 65),
                                       (40, 130)])
    def test_bbox_overlap_cells_equal_dense_mask(self, na, nb):
        # Integer bounds make shared and touching edges and empty boxes common.
        rng = np.random.default_rng(na + nb)

        def boxes(n):
            lo = rng.integers(0, 10, (n, 2)).astype(float)
            return lo, lo + rng.integers(0, 8, (n, 2))

        (lo_a, hi_a), (lo_b, hi_b) = boxes(na), boxes(nb)
        dense = np.ones((na, nb), dtype=bool)
        for d in range(2):
            dense &= hi_b[None, :, d] > lo_a[:, None, d]
            dense &= lo_b[None, :, d] < hi_a[:, None, d]
        i, j = bbox_overlap_cells(lo_a, hi_a, lo_b, hi_b)
        want_i, want_j = np.nonzero(dense)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        assert dense.size == 0 or 0.05 < dense.mean() < 0.6


class TestSegments:
    def test_properties(self):
        s = LineSegment((0, 0), (4, 0))
        assert s.length == 4
        assert np.allclose(s.midpoint, [2, 0])
        assert same_up_to_scale(line_through(hom(*s.p), hom(*s.q)), [0, 1, 0])

    def test_zero_length_rejected(self):
        with pytest.raises(DegenerateInputError):
            LineSegment((1, 1), (1, 1))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DegenerateInputError):
            LineSegment((0, 0), (bad, 5))
        with pytest.raises(DegenerateInputError):
            LineSegment((0, bad), (5, 5))
