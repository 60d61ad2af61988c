import numpy as np
import pytest

from objguide.geom import (
    CONTAINS_EPS,
    DegenerateInputError,
    DetBox,
    EstimationError,
    Homography,
    LineSegment,
    QuadBox,
    _at_infinity,
    canonical_quad_order,
    dlt_homography,
    join,
    normalize_h,
    points_in_quads,
    project_quads,
    quad_iou,
    same_up_to_scale,
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

    def test_random_exact_synthesis(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q1 = random_convex_quad(rng, 0, 2000).corners
            q2 = random_convex_quad(rng, 0, 2000).corners
            h = dlt_homography(q1, q2)
            assert np.abs(h.map_points(q1) - q2).max() < 1e-6


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
        assert all(np.array_equal(a, b) for (_, a), b in zip(want, proj[rows]))
        # A stack of matrices gives each matrix's own projection.
        assert stacked_valid[0].all() and np.array_equal(stacked[0], corners)
        assert np.array_equal(stacked_valid[1], valid)
        assert np.array_equal(stacked[1][rows], proj[rows])


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
