import numpy as np
import pytest

from objguide import synth
from objguide.geom import (
    DegenerateInputError,
    DetBox,
    Homography,
    LineSegment,
    QuadBox,
    normalize_h,
)
from objguide.rectify import (
    MODES,
    BackprojectionError,
    ColumnInterval,
    Rectifier,
    RectifierDegenerateError,
    backproject_quad,
    build_plane_rectifiers,
    build_rectifier,
    merge_detections,
    segment_columns,
)
from objguide.synth import (
    PlaneSpec,
    _plant_view,
    generate,
    pencil_segments,
    slant_p,
    view_homography,
)
from objguide.vanishing import (
    HORIZONTAL,
    VERTICAL,
    VanishingPoint,
    VpParams,
    _residual_matrix,
    best_by_orientation,
    image_vps,
    segment_arrays,
)


def _plane_setup(slant=20.0, tx=380.0, ty=240.0, seg_noise=0.0, seed=0):
    h = view_homography(scale=1.0, tx=tx, ty=ty, p=slant_p(slant, 330))
    plane = PlaneSpec(h_a=h, h_b=h, rows=3, cols=4)
    rng = np.random.default_rng(seed)
    segs = _plant_view(plane, h, rng, seg_noise)[0]
    vp_h = normalize_h(h @ [1, 0, 0])
    vp_v = normalize_h(h @ [0, 1, 0])
    return h, plane, segs, vp_h, vp_v


class TestBuildRectifier:
    def test_vps_sent_to_infinity(self):
        _, _, segs, vp_h, vp_v = _plane_setup()
        r = build_rectifier(vp_h, vp_v, segment_arrays(segs), (1280, 960))
        for vp in (vp_h, vp_v):
            mapped = normalize_h(r.H.m @ vp)
            assert abs(mapped[2]) < 1e-9

    def test_axis_alignment(self):
        _, _, segs, vp_h, vp_v = _plane_setup()
        r = build_rectifier(vp_h, vp_v, segment_arrays(segs), (1280, 960))
        mh = normalize_h(r.H.m @ vp_h)
        mv = normalize_h(r.H.m @ vp_v)
        assert abs(mh[1]) < 1e-9 and mh[0] != 0  # +-x direction
        assert abs(mv[0]) < 1e-9 and mv[1] != 0  # +-y direction

    def test_rectified_segments_axis_aligned(self):
        _, _, segs, vp_h, vp_v = _plane_setup()
        r = build_rectifier(vp_h, vp_v, segment_arrays(segs), (1280, 960))
        for s in segs:
            p, q = r.H.map_points(np.vstack([s.p, s.q]))
            d = q - p
            assert min(abs(d[0]), abs(d[1])) < 1e-6 * np.linalg.norm(d)

    def test_fronto_parallel_is_near_identity(self):
        h = view_homography(scale=1.0, tx=300, ty=200)
        plane = PlaneSpec(h_a=h, h_b=h)
        segs = _plant_view(plane, h, None)[0]
        r = build_rectifier([1, 0, 0], [0, 1, 0], segment_arrays(segs), (1280, 960))
        pts = np.array([s.p for s in segs])
        assert np.abs(r.H.map_points(pts) - pts).max() < 1e-9

    def test_scale_fit_keeps_endpoints_close(self):
        _, _, segs, vp_h, vp_v = _plane_setup(slant=25.0)
        r = build_rectifier(vp_h, vp_v, segment_arrays(segs), (1280, 960))
        pts = np.array([e for s in segs for e in (s.p, s.q)])
        disp = np.linalg.norm(r.H.map_points(pts) - pts, axis=1)
        # Without the fitted scale/translation the drift would be huge.
        assert disp.mean() < 200.0

    def test_no_segments_rejected(self):
        with pytest.raises(DegenerateInputError):
            build_rectifier([1, 0, 0], [0, 1, 0], segment_arrays([]), (1280, 960))

    def test_vanishing_line_through_center_degenerate(self):
        # Both VPs finite on a line through the image center.
        segs = segment_arrays([LineSegment((0, 0), (30, 0))])
        with pytest.raises(RectifierDegenerateError):
            build_rectifier([340.0, 240.0, 1.0], [940.0, 720.0, 1.0], segs, (1280, 960))

    def test_coincident_vps_rejected(self):
        segs = segment_arrays([LineSegment((0, 0), (30, 0))])
        with pytest.raises(DegenerateInputError, match="coincident"):
            build_rectifier([3000.0, 240.0, 1.0], [-6000.0, -480.0, -2.0], segs, (1280, 960))

    def test_backproject_corner_at_infinity_rejected(self):
        # H^-1 sends the line x = -100 to infinity.
        h_inv = np.array([[1.0, 0, 0], [0, 1, 0], [0.01, 0, 1]])
        r = Rectifier(Homography(np.linalg.inv(h_inv)), np.zeros(3), np.zeros(3), 0)
        with pytest.raises(BackprojectionError):
            backproject_quad(DetBox(-100, 0, -50, 10), r)
        assert backproject_quad(DetBox(-90, 0, -50, 10), r).corners.shape == (4, 2)

    @pytest.mark.xfail(
        strict=True,
        raises=pytest.fail.Exception,
        reason="project_quads tests only |w|, not its sign: a box straddling the line "
        "x = -100 that H^-1 sends to infinity comes back as the finite convex quad "
        "(-100, 0), (300, -20), (300, 0), (-100, 20), which is not its image",
    )
    def test_backproject_straddling_box_rejected(self):
        h_inv = np.array([[1.0, 0, 0], [0, 1, 0], [0.01, 0, 1]])
        r = Rectifier(Homography(np.linalg.inv(h_inv)), np.zeros(3), np.zeros(3), 0)
        with pytest.raises(BackprojectionError):
            backproject_quad(DetBox(-150, 0, -50, 10), r)

    def test_backproject_round_trip(self):
        _, _, segs, vp_h, vp_v = _plane_setup()
        r = build_rectifier(vp_h, vp_v, segment_arrays(segs), (1280, 960))
        q = QuadBox.from_detbox(DetBox(400, 300, 520, 430, 0.9))
        rect = r.H.map_points(q.corners)
        lo, hi = rect.min(axis=0), rect.max(axis=0)
        back = backproject_quad(DetBox(lo[0], lo[1], hi[0], hi[1], 0.9), r)
        round_trip = r.H.map_points(back.corners)
        hull_lo = round_trip.min(axis=0)
        hull_hi = round_trip.max(axis=0)
        assert np.abs(hull_lo - lo).max() < 1e-6
        assert np.abs(hull_hi - hi).max() < 1e-6


def _list_fit(vp_h, vp_v, segments, image_size):
    """The rectifier fit on a LineSegment list, endpoints stacked segment by
    segment (p0, q0, p1, q1, ...) in a Python loop."""
    vp_h, vp_v = np.asarray(vp_h, dtype=float), np.asarray(vp_v, dtype=float)
    width, height = image_size
    center = np.array([width / 2.0, height / 2.0, 1.0])
    l = np.cross(vp_h, vp_v)
    l = l / np.linalg.norm(l)
    l = l / float(l @ center)
    p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], l])

    def image_direction(vp):
        d = (p @ vp)[:2]
        return d / np.linalg.norm(d)

    d_h, d_v = image_direction(vp_h), image_direction(vp_v)
    if d_h[0] < 0 or (d_h[0] == 0 and d_h[1] < 0):
        d_h = -d_h
    if d_v[1] < 0 or (d_v[1] == 0 and d_v[0] < 0):
        d_v = -d_v
    b = np.eye(3)
    b[:2, :2] = np.linalg.inv(np.column_stack([d_h, d_v]))
    endpoints = np.array([e for s in segments for e in (s.p, s.q)])
    ph = np.column_stack([endpoints, np.ones(len(endpoints))]) @ (b @ p).T
    good = np.abs(ph[:, 2]) >= 1e-9 * np.hypot(ph[:, 0], ph[:, 1])
    mapped, orig = ph[good, :2] / ph[good, 2:], endpoints[good]
    s_mat = np.eye(3)
    for axis in range(2):
        u, v = mapped[:, axis], orig[:, axis]
        var = float(np.var(u))
        if var < 1e-12:
            scale, shift = 1.0, float(np.mean(v) - np.mean(u))
        else:
            scale = float(np.cov(u, v, bias=True)[0, 1] / var) or 1.0
            if scale < 0.0:
                scale, u = -scale, -u
                b[axis, :] = -b[axis, :]
            shift = float(np.mean(v) - scale * np.mean(u))
        s_mat[axis, axis], s_mat[axis, 2] = scale, shift
    return Homography(s_mat @ b @ p)


class TestTableRowsFit:
    @pytest.mark.parametrize("seed", range(10))
    def test_same_bytes_as_list_fit(self, seed):
        # Every facade rectifier fitted on table rows equals the list fit on
        # the same on-plane segments, byte for byte.
        params = VpParams()
        scene = generate(synth.preset("two-facade", seed))
        fitted = 0
        for img in (scene.img_a, scene.img_b):
            table = segment_arrays(img.segments)
            vps = image_vps(table, img.width, img.height, params)
            built, intervals = build_plane_rectifiers(table, vps, img.width, img.height, params)
            horizontal = [vp for vp in vps if vp.orientation == HORIZONTAL]
            vertical = best_by_orientation(vps, VERTICAL)
            _, _, dirs, mids, _ = table
            points = np.array([vp.point for vp in horizontal + [vertical]])
            agree = _residual_matrix(points, dirs, mids) <= params.angle_thresh
            for r, iv in zip(built, intervals):
                on_plane = (
                    (agree[iv.plane_id] | agree[-1]) & (iv.lo <= mids[:, 0]) & (mids[:, 0] < iv.hi)
                )
                segs = [img.segments[i] for i in np.flatnonzero(on_plane)]
                if not segs:  # nothing to fit the scale on
                    assert r is None
                    continue
                want = _list_fit(horizontal[iv.plane_id].point, vertical.point, segs, (1280, 960))
                rows = build_rectifier(
                    horizontal[iv.plane_id].point, vertical.point,
                    tuple(col[on_plane] for col in table), (1280, 960),
                )
                assert np.array_equal(rows.H.m, want.m)
                assert np.array_equal(r.H.m, want.m)
                fitted += 1
        assert fitted >= 2


class TestSegmentColumns:
    def _vp(self, point, ids, orientation=HORIZONTAL):
        return VanishingPoint(normalize_h(np.asarray(point, float)), tuple(ids), orientation)

    def test_single_vp_full_width(self):
        vp = self._vp([1, 0, 0], range(10))
        out = segment_columns(segment_arrays([]), [vp], 640)
        assert out == [ColumnInterval(0, 640, 0)]

    def test_two_facades_boundary_in_gap(self):
        rng = np.random.default_rng(5)
        vp_l = np.array([4000.0, 480.0, 1.0])
        vp_r = np.array([-3200.0, 470.0, 1.0])
        segs = pencil_segments(vp_l, 60, rng, region=(0, 100, 480, 860))
        segs += pencil_segments(vp_r, 60, rng, region=(520, 100, 1000, 860))
        vps = [self._vp(vp_l, range(60)), self._vp(vp_r, range(60, 120))]
        out = segment_columns(segment_arrays(segs), vps, 1000)
        assert [iv.plane_id for iv in out] == [0, 1]
        boundary = out[0].hi
        assert 480 <= boundary <= 520
        assert out[0].lo == 0 and out[-1].hi == 1000

    def test_partition_is_exact(self):
        rng = np.random.default_rng(9)
        vp_l = np.array([5000.0, 400.0, 1.0])
        vp_r = np.array([-4000.0, 420.0, 1.0])
        segs = pencil_segments(vp_l, 40, rng, region=(0, 0, 300, 700))
        segs += pencil_segments(vp_r, 40, rng, region=(340, 0, 640, 700))
        vps = [self._vp(vp_l, range(40)), self._vp(vp_r, range(40, 80))]
        out = segment_columns(segment_arrays(segs), vps, 640)
        assert out[0].lo == 0 and out[-1].hi == 640
        for a, b in zip(out, out[1:]):
            assert a.hi == b.lo

    def test_near_vertical_segments_ignored(self):
        # Vertical segments must not vote; with only them, fall back to plane 0.
        segs = [LineSegment((100 + 10 * k, 0), (100 + 10 * k, 200)) for k in range(10)]
        vps = [
            self._vp([1, 0, 0], range(30)),
            self._vp([3000.0, 200.0, 1.0], range(30, 50)),
        ]
        out = segment_columns(segment_arrays(segs), vps, 640)
        assert out == [ColumnInterval(0, 640, 0)]

    def test_no_horizontal_vp_raises(self):
        with pytest.raises(DegenerateInputError):
            segment_columns(segment_arrays([]), [], 640)


class TestMergeDetections:
    def _q(self, x0, y0, w=50.0, h=60.0, score=0.5):
        return QuadBox.from_detbox(DetBox(x0, y0, x0 + w, y0 + h, score))

    def test_modes_select_streams(self):
        o = [self._q(0, 0)]
        oa = [self._q(200, 0)]
        r = [self._q(400, 0)]
        ra = [self._q(600, 0)]
        assert merge_detections(o, oa, r, ra, "O") == o
        assert merge_detections(o, oa, r, ra, "OA") == oa
        assert merge_detections(o, oa, r, ra, "R") == r
        assert merge_detections(o, oa, r, ra, "RA") == ra
        assert set(map(id, merge_detections(o, oa, r, ra, "O+R"))) == set(map(id, o + r))
        assert set(map(id, merge_detections(o, oa, r, ra, "(O+R)A"))) == set(map(id, oa + ra))

    def test_dedup_keeps_higher_score(self):
        a = self._q(0, 0, score=0.9)
        b = self._q(1, 0, score=0.4)  # IoU with a well above 0.8
        out = merge_detections([a], [], [b], [], "O+R")
        assert out == [a]

    def test_distinct_boxes_survive(self):
        a = self._q(0, 0)
        b = self._q(300, 300)
        out = merge_detections([a], [], [b], [], "O+R")
        assert len(out) == 2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            merge_detections([], [], [], [], "X")

    def test_modes_constant(self):
        assert MODES == ("O", "OA", "R", "RA", "O+R", "(O+R)A")
