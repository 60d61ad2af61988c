import numpy as np
import pytest

from objguide.boxes import AdjustmentError, adjust_box, vote_box_vps
from objguide.cli import _preset_scene
from objguide.geom import DegenerateInputError, DetBox, LineSegment, QuadBox
from objguide.synth import (
    PlaneSpec,
    _project,
    _window_world_corners,
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
    best_by_orientation,
    classify,
    estimate_vps,
    image_vps,
    residual_angle,
)

VP_X_INF = np.array([1.0, 0.0, 0.0])
VP_Y_INF = np.array([0.0, 1.0, 0.0])


class TestAdjustBox:
    def test_fronto_parallel_fixed_point(self):
        # With both vanishing points at axis infinity the box maps to itself.
        box = DetBox(100, 200, 160, 290, 0.8)
        q = adjust_box(box, VP_X_INF, VP_Y_INF)
        assert np.array_equal(q.corners, box.corners)
        assert q.score == 0.8

    def test_known_slant_recovers_true_quad(self):
        h = view_homography(scale=1.0, tx=400, ty=250, p=slant_p(20, 330))
        plane = PlaneSpec(h_a=h, h_b=h)
        vp_h = h @ [1, 0, 0]
        vp_v = h @ [0, 1, 0]
        for world in _window_world_corners(plane):
            true = _project(h, world)
            lo, hi = true.min(axis=0), true.max(axis=0)
            q = adjust_box(DetBox(lo[0], lo[1], hi[0], hi[1]), vp_h, vp_v)
            # The hull midpoints constrain the quad close to the projection.
            assert np.abs(q.corners - true).max() < 2.5

    def test_coincident_vps_rejected(self):
        with pytest.raises(DegenerateInputError):
            adjust_box(DetBox(0, 0, 10, 10), VP_X_INF, 2.0 * VP_X_INF)

    def test_vp_on_edge_line_degenerate(self):
        # Horizontal VP collinear with the top midpoint and on the vertical
        # midline makes two construction lines coincide.
        box = DetBox(0, 0, 10, 10)
        with pytest.raises(AdjustmentError):
            adjust_box(box, np.array([5.0, 5.0, 1.0]), VP_Y_INF)

    def test_convexity_preserved_under_moderate_slant(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            slant = rng.uniform(-28, 28)
            h = view_homography(scale=1.0, tx=300, ty=200, p=slant_p(abs(slant), 330) * np.sign(slant or 1.0))
            vp_h = h @ [1, 0, 0]
            vp_v = h @ [0, 1, 0]
            x0, y0 = rng.uniform(250, 500, 2)
            q = adjust_box(DetBox(x0, y0, x0 + 60, y0 + 80), vp_h, vp_v)
            assert isinstance(q, QuadBox)


class TestVoteBoxVps:
    def _vps(self):
        v_h1 = VanishingPoint(VP_X_INF, tuple(range(30)), HORIZONTAL)
        v_h2 = VanishingPoint(
            np.array([2000.0, 300.0, 1.0]) / np.linalg.norm([2000.0, 300.0, 1.0]),
            tuple(range(30, 50)),
            HORIZONTAL,
        )
        v_v = VanishingPoint(VP_Y_INF, tuple(range(50, 70)), VERTICAL)
        return [v_h1, v_h2, v_v]

    def test_local_segments_override_global(self):
        vps = self._vps()
        box = DetBox(500, 400, 600, 500)
        # Segments near the box point at the *second* horizontal VP.
        segs = []
        for k in range(6):
            mid = np.array([520.0 + 12 * k, 430.0 + 8 * k])
            d = np.array([2000.0, 300.0]) - mid
            d = 30 * d / np.linalg.norm(d)
            segs.append(LineSegment(mid - d / 2, mid + d / 2))
        [(vp_h, vp_v)] = vote_box_vps([box], segs, vps, VpParams())
        assert vp_h is vps[1]
        assert vp_v is vps[2]

    def test_no_local_votes_falls_back_to_global(self):
        vps = self._vps()
        box = DetBox(10, 10, 60, 60)
        far = [LineSegment((900, 900), (960, 900))]
        [(vp_h, vp_v)] = vote_box_vps([box], far, vps, VpParams())
        assert vp_h is vps[0]  # best-supported horizontal
        assert vp_v is vps[2]

    def test_length_weighting_breaks_conflicts(self):
        vps = self._vps()
        box = DetBox(500, 400, 600, 500)
        mid = np.array([550.0, 450.0])
        # One long segment toward vp_h2 outweighs two short ones toward vp_h1.
        d2 = np.array([2000.0, 300.0]) - mid
        d2 = 80 * d2 / np.linalg.norm(d2)
        segs = [LineSegment(mid - d2 / 2, mid + d2 / 2)]
        for off in (-20.0, 20.0):
            m = mid + [0, off]
            segs.append(LineSegment(m - [15, 0], m + [15, 0]))
        [(vp_h, _)] = vote_box_vps([box], segs, vps, VpParams())
        assert vp_h is vps[1]

    def test_equal_votes_keep_first(self):
        # One 30 px segment toward each horizontal point: the first one wins.
        vp_h2 = np.array([950.0, 750.0, 1.0])
        vps = [
            VanishingPoint(VP_X_INF, (0,), HORIZONTAL),
            VanishingPoint(vp_h2, (1,), HORIZONTAL),
            VanishingPoint(VP_Y_INF, (2,), VERTICAL),
        ]
        segs = [LineSegment((515, 430), (545, 430)), LineSegment((538, 441), (562, 459))]
        assert [s.length for s in segs] == [30.0, 30.0]
        box = DetBox(500, 400, 600, 500)
        assert vote_box_vps([box], segs, vps, VpParams())[0][0] is vps[0]
        assert vote_box_vps([box], segs, vps[1::-1] + vps[2:], VpParams())[0][0] is vps[1]


def _reference_vote(box, segments, vps, params):
    """Per-box, per-segment loop that vote_box_vps replaces."""
    cx, cy = box.center
    hw, hh = 0.75 * box.width, 0.75 * box.height
    votes = np.zeros(len(vps))
    for s in segments:
        mx, my = s.midpoint
        if not (abs(mx - cx) <= hw and abs(my - cy) <= hh):
            continue
        res = [residual_angle(s, vp.point) for vp in vps]
        k = int(np.argmin(res))
        if res[k] <= params.angle_thresh:
            votes[k] += s.length

    def winner(orientation):
        best, best_votes = best_by_orientation(vps, orientation), 0.0
        for k, vp in enumerate(vps):
            if vp.orientation == orientation and votes[k] > best_votes:
                best, best_votes = vp, votes[k]
        return best

    return winner(HORIZONTAL), winner(VERTICAL)


class TestVoteBoxVpsReference:
    @pytest.mark.parametrize("preset", ["two-facade", "grid"])
    def test_same_picks_as_per_box_loop(self, preset):
        params = VpParams()
        local = 0
        for seed in (0, 1):
            scene = generate(_preset_scene(preset, seed))
            for img in (scene.img_a, scene.img_b):
                vps = image_vps(img.segments, img.width, img.height, params)
                got = vote_box_vps(img.boxes, img.segments, vps, params)
                assert len(got) == len(img.boxes)
                for box, (vp_h, vp_v) in zip(img.boxes, got):
                    ref_h, ref_v = _reference_vote(box, img.segments, vps, params)
                    assert vp_h is ref_h and vp_v is ref_v
                    local += vp_h is not best_by_orientation(vps, HORIZONTAL)
        if preset == "two-facade":
            # Some boxes (seed 1, view a) outvote the global horizontal point.
            assert local > 0

    def test_same_picks_on_random_boxes(self):
        # Four pencils with angular noise and random boxes of many sizes, so
        # that local votes, thresholds and ties all decide some picks.
        rng = np.random.default_rng(5)
        params = VpParams()
        segs = []
        for vp in ([2000.0, 300, 1], [-900.0, 400, 1], [0.0, 1, 0], [600.0, 20000, 1]):
            segs += pencil_segments(np.array(vp), 40, rng, noise_deg=3.0)
        vps = image_vps(segs, 1280, 960, params)
        boxes = []
        for _ in range(300):
            x, y = rng.uniform(0, 1200, 2)
            w, h = rng.uniform(5, 300, 2)
            boxes.append(DetBox(x, y, x + w, y + h))
        got = vote_box_vps(boxes, segs, vps, params)
        picks = set()
        for box, (vp_h, vp_v) in zip(boxes, got):
            ref_h, ref_v = _reference_vote(box, segs, vps, params)
            assert vp_h is ref_h and vp_v is ref_v
            picks.add((id(vp_h), id(vp_v)))
        assert len(picks) >= 3


class TestAdjustmentPipeline:
    def test_estimated_vps_adjust_close_to_truth(self):
        # End to end: segments -> VPs -> adjusted boxes, on one slanted plane.
        h = view_homography(scale=1.0, tx=380, ty=240, p=slant_p(18, 330))
        plane = PlaneSpec(h_a=h, h_b=h, rows=3, cols=4)
        from objguide.synth import _plane_segments

        rng = np.random.default_rng(0)
        segs = _plane_segments(plane, h, rng, 0.0)
        vps = classify(estimate_vps(segs, VpParams()), VpParams(), center=(640, 480))
        trues, boxes = [], []
        for world in _window_world_corners(plane):
            true = _project(h, world)
            lo, hi = true.min(axis=0), true.max(axis=0)
            trues.append(true)
            boxes.append(DetBox(lo[0], lo[1], hi[0], hi[1]))
        errs = []
        for box, true, (vp_h, vp_v) in zip(boxes, trues, vote_box_vps(boxes, segs, vps, VpParams())):
            q = adjust_box(box, vp_h.point, vp_v.point)
            errs.append(np.abs(q.corners - true).max())
        assert np.median(errs) < 2.0
