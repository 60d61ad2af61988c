import numpy as np
import pytest

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
    build_rectifier,
    merge_detections,
    segment_columns,
)
from objguide.synth import (
    PlaneSpec,
    _plane_segments,
    pencil_segments,
    slant_p,
    view_homography,
)
from objguide.vanishing import HORIZONTAL, VanishingPoint


def _plane_setup(slant=20.0, tx=380.0, ty=240.0, seg_noise=0.0, seed=0):
    h = view_homography(scale=1.0, tx=tx, ty=ty, p=slant_p(slant, 330))
    plane = PlaneSpec(h_a=h, h_b=h, rows=3, cols=4)
    rng = np.random.default_rng(seed)
    segs = _plane_segments(plane, h, rng, seg_noise)
    vp_h = normalize_h(h @ [1, 0, 0])
    vp_v = normalize_h(h @ [0, 1, 0])
    return h, plane, segs, vp_h, vp_v


class TestBuildRectifier:
    def test_vps_sent_to_infinity(self):
        _, _, segs, vp_h, vp_v = _plane_setup()
        r = build_rectifier(vp_h, vp_v, segs, (1280, 960))
        for vp in (vp_h, vp_v):
            mapped = normalize_h(r.H.m @ vp)
            assert abs(mapped[2]) < 1e-9

    def test_axis_alignment(self):
        _, _, segs, vp_h, vp_v = _plane_setup()
        r = build_rectifier(vp_h, vp_v, segs, (1280, 960))
        mh = normalize_h(r.H.m @ vp_h)
        mv = normalize_h(r.H.m @ vp_v)
        assert abs(mh[1]) < 1e-9 and mh[0] != 0  # +-x direction
        assert abs(mv[0]) < 1e-9 and mv[1] != 0  # +-y direction

    def test_rectified_segments_axis_aligned(self):
        _, _, segs, vp_h, vp_v = _plane_setup()
        r = build_rectifier(vp_h, vp_v, segs, (1280, 960))
        for s in segs:
            p, q = r.H.map_points(np.vstack([s.p, s.q]))
            d = q - p
            assert min(abs(d[0]), abs(d[1])) < 1e-6 * np.linalg.norm(d)

    def test_fronto_parallel_is_near_identity(self):
        h = view_homography(scale=1.0, tx=300, ty=200)
        plane = PlaneSpec(h_a=h, h_b=h)
        segs = _plane_segments(plane, h, np.random.default_rng(0), 0.0)
        r = build_rectifier([1, 0, 0], [0, 1, 0], segs, (1280, 960))
        pts = np.array([s.p for s in segs])
        assert np.abs(r.H.map_points(pts) - pts).max() < 1e-9

    def test_scale_fit_keeps_endpoints_close(self):
        _, _, segs, vp_h, vp_v = _plane_setup(slant=25.0)
        r = build_rectifier(vp_h, vp_v, segs, (1280, 960))
        pts = np.array([e for s in segs for e in (s.p, s.q)])
        disp = np.linalg.norm(r.H.map_points(pts) - pts, axis=1)
        # Without the fitted scale/translation the drift would be huge.
        assert disp.mean() < 200.0

    def test_no_segments_rejected(self):
        with pytest.raises(DegenerateInputError):
            build_rectifier([1, 0, 0], [0, 1, 0], [], (1280, 960))

    def test_vanishing_line_through_center_degenerate(self):
        # Both VPs finite on a line through the image center.
        segs = [LineSegment((0, 0), (30, 0))]
        with pytest.raises(RectifierDegenerateError):
            build_rectifier([340.0, 240.0, 1.0], [940.0, 720.0, 1.0], segs, (1280, 960))

    def test_coincident_vps_rejected(self):
        segs = [LineSegment((0, 0), (30, 0))]
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
        r = build_rectifier(vp_h, vp_v, segs, (1280, 960))
        q = QuadBox.from_detbox(DetBox(400, 300, 520, 430, 0.9))
        rect = r.H.map_points(q.corners)
        lo, hi = rect.min(axis=0), rect.max(axis=0)
        back = backproject_quad(DetBox(lo[0], lo[1], hi[0], hi[1], 0.9), r)
        round_trip = r.H.map_points(back.corners)
        hull_lo = round_trip.min(axis=0)
        hull_hi = round_trip.max(axis=0)
        assert np.abs(hull_lo - lo).max() < 1e-6
        assert np.abs(hull_hi - hi).max() < 1e-6


class TestSegmentColumns:
    def _vp(self, point, ids, orientation=HORIZONTAL):
        return VanishingPoint(normalize_h(np.asarray(point, float)), tuple(ids), orientation)

    def test_single_vp_full_width(self):
        vp = self._vp([1, 0, 0], range(10))
        out = segment_columns([], [vp], 640)
        assert out == [ColumnInterval(0, 640, 0)]

    def test_two_facades_boundary_in_gap(self):
        rng = np.random.default_rng(5)
        vp_l = np.array([4000.0, 480.0, 1.0])
        vp_r = np.array([-3200.0, 470.0, 1.0])
        segs = pencil_segments(vp_l, 60, rng, region=(0, 100, 480, 860))
        segs += pencil_segments(vp_r, 60, rng, region=(520, 100, 1000, 860))
        vps = [self._vp(vp_l, range(60)), self._vp(vp_r, range(60, 120))]
        out = segment_columns(segs, vps, 1000)
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
        out = segment_columns(segs, vps, 640)
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
        out = segment_columns(segs, vps, 640)
        assert out == [ColumnInterval(0, 640, 0)]

    def test_no_horizontal_vp_raises(self):
        with pytest.raises(DegenerateInputError):
            segment_columns([], [], 640)


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
