import numpy as np
import pytest

from objguide.boxes import adjust_box, vote_box_vps
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
    MissingVanishingPointError,
    VanishingPoint,
    VpParams,
    _residual_matrix,
    best_by_orientation,
    classify,
    estimate_vps,
    image_vps,
    segment_arrays,
)

VP_X_INF = np.array([1.0, 0.0, 0.0])
VP_Y_INF = np.array([0.0, 1.0, 0.0])


class TestAdjustBox:
    def test_fronto_parallel_fixed_point(self):
        # With both vanishing points at axis infinity the box maps to itself.
        box = DetBox(100, 200, 160, 290, 0.8)
        [q] = adjust_box([box], VP_X_INF, VP_Y_INF)
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
            [q] = adjust_box([DetBox(lo[0], lo[1], hi[0], hi[1])], vp_h, vp_v)
            # The hull midpoints constrain the quad close to the projection.
            assert np.abs(q.corners - true).max() < 2.5

    def test_coincident_vps_rejected(self):
        assert adjust_box([DetBox(0, 0, 10, 10)], VP_X_INF, 2.0 * VP_X_INF) == [None]

    def test_vp_on_edge_line_degenerate(self):
        # Horizontal VP collinear with the top midpoint and on the vertical
        # midline makes two construction lines coincide.
        box = DetBox(0, 0, 10, 10)
        assert adjust_box([box], np.array([5.0, 5.0, 1.0]), VP_Y_INF) == [None]

    def test_convexity_preserved_under_moderate_slant(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            slant = rng.uniform(-28, 28)
            h = view_homography(scale=1.0, tx=300, ty=200, p=slant_p(abs(slant), 330) * np.sign(slant or 1.0))
            vp_h = h @ [1, 0, 0]
            vp_v = h @ [0, 1, 0]
            x0, y0 = rng.uniform(250, 500, 2)
            [q] = adjust_box([DetBox(x0, y0, x0 + 60, y0 + 80)], vp_h, vp_v)
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
        [vp_h], [vp_v] = vote_box_vps([box], segment_arrays(segs), vps, VpParams())
        assert np.array_equal(vp_h, vps[1].point)
        assert np.array_equal(vp_v, vps[2].point)

    def test_no_local_votes_falls_back_to_global(self):
        vps = self._vps()
        box = DetBox(10, 10, 60, 60)
        far = [LineSegment((900, 900), (960, 900))]
        [vp_h], [vp_v] = vote_box_vps([box], segment_arrays(far), vps, VpParams())
        assert np.array_equal(vp_h, vps[0].point)  # best-supported horizontal
        assert np.array_equal(vp_v, vps[2].point)

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
        [vp_h], _ = vote_box_vps([box], segment_arrays(segs), vps, VpParams())
        assert np.array_equal(vp_h, vps[1].point)

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
        table = segment_arrays(segs)
        assert np.array_equal(vote_box_vps([box], table, vps, VpParams())[0][0], vps[0].point)
        swapped = vps[1::-1] + vps[2:]
        assert np.array_equal(vote_box_vps([box], table, swapped, VpParams())[0][0], vps[1].point)

    def test_no_boxes_give_empty_stacks(self):
        table = segment_arrays([LineSegment((515, 430), (545, 430))])
        vp_h, vp_v = vote_box_vps([], table, self._vps(), VpParams())
        assert vp_h.shape == vp_v.shape == (0, 3)

    def test_missing_orientation_raises(self):
        table = segment_arrays([LineSegment((515, 430), (545, 430))])
        with pytest.raises(MissingVanishingPointError):
            vote_box_vps([DetBox(500, 400, 600, 500)], table, self._vps()[:2], VpParams())


def _reference_vote(box, segments, vps, params):
    """Per-box, per-segment loop that vote_box_vps replaces."""
    cx, cy = box.center
    hw, hh = 0.75 * box.width, 0.75 * box.height
    votes = np.zeros(len(vps))
    points = np.array([vp.point for vp in vps])
    for s in segments:
        mx, my = s.midpoint
        if not (abs(mx - cx) <= hw and abs(my - cy) <= hh):
            continue
        res = _residual_matrix(points, (s.q - s.p)[None], s.midpoint[None])[:, 0]
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
                table = segment_arrays(img.segments)
                vps = image_vps(table, img.width, img.height, params)
                got = vote_box_vps(img.boxes, table, vps, params)
                assert got[0].shape == got[1].shape == (len(img.boxes), 3)
                for box, vp_h, vp_v in zip(img.boxes, *got):
                    ref_h, ref_v = _reference_vote(box, img.segments, vps, params)
                    assert np.array_equal(vp_h, ref_h.point) and np.array_equal(vp_v, ref_v.point)
                    local += not np.array_equal(vp_h, best_by_orientation(vps, HORIZONTAL).point)
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
        table = segment_arrays(segs)
        vps = image_vps(table, 1280, 960, params)
        boxes = []
        for _ in range(300):
            x, y = rng.uniform(0, 1200, 2)
            w, h = rng.uniform(5, 300, 2)
            boxes.append(DetBox(x, y, x + w, y + h))
        got = vote_box_vps(boxes, table, vps, params)
        picks = set()
        for box, vp_h, vp_v in zip(boxes, *got):
            ref_h, ref_v = _reference_vote(box, segs, vps, params)
            assert np.array_equal(vp_h, ref_h.point) and np.array_equal(vp_v, ref_v.point)
            picks.add((vp_h.tobytes(), vp_v.tobytes()))
        assert len(picks) >= 3


def _reference_adjust(box, vp_h, vp_v):
    """Per-box construction that adjust_box's list form replaces: scalar
    cross products, each checked in turn.  Returns (corners, None) or
    (None, the first failed check)."""
    norm = np.linalg.norm
    vp_h, vp_v = np.asarray(vp_h, dtype=float), np.asarray(vp_v, dtype=float)
    if norm(np.cross(vp_h, vp_v)) <= 1e-9 * norm(vp_h) * norm(vp_v):
        return None, "coincident vps"

    def cross(a, b):
        c = np.cross(a, b)
        return None if norm(c) < 1e-12 * norm(a) * norm(b) else c

    xc, yc = (box.xmin + box.xmax) / 2.0, (box.ymin + box.ymax) / 2.0
    mids = [[xc, box.ymin, 1.0], [xc, box.ymax, 1.0], [box.xmin, yc, 1.0], [box.xmax, yc, 1.0]]
    top, bottom, left, right = (cross(m, vp) for m, vp in zip(mids, (vp_h, vp_h, vp_v, vp_v)))
    if any(l is None for l in (top, bottom, left, right)):
        return None, "vp on a midpoint"
    corners_h = [cross(top, left), cross(top, right), cross(bottom, right), cross(bottom, left)]
    if any(c is None for c in corners_h):
        return None, "identical lines"
    if any(abs(c[2]) < 1e-9 * np.hypot(c[0], c[1]) for c in corners_h):
        return None, "corner at infinity"
    try:
        return QuadBox(np.array([[c[0] / c[2], c[1] / c[2]] for c in corners_h])).corners, None
    except DegenerateInputError:
        return None, "not convex"


def _assert_adjust_equals_reference(boxes, vp_h, vp_v):
    """adjust_box's list form against the reference, box by box; returns the
    reference's failure reasons."""
    got = adjust_box(boxes, vp_h, vp_v)
    assert len(got) == len(boxes)
    reasons = []
    for box, h, v, quad in zip(boxes, vp_h, vp_v, got):
        want, reason = _reference_adjust(box, h, v)
        reasons.append(reason)
        if want is None:
            assert quad is None, reason
        else:
            assert quad is not None
            assert quad.corners.tobytes() == want.tobytes()
            assert quad.score == box.score
    return reasons


class TestAdjustBoxReference:
    @pytest.mark.parametrize("preset", ["two-facade", "grid"])
    def test_same_quads_as_per_box_loop(self, preset):
        params = VpParams()
        n = 0
        for seed in (0, 1):
            scene = generate(_preset_scene(preset, seed))
            for img in (scene.img_a, scene.img_b):
                table = segment_arrays(img.segments)
                vps = image_vps(table, img.width, img.height, params)
                vp_h, vp_v = vote_box_vps(img.boxes, table, vps, params)
                _assert_adjust_equals_reference(img.boxes, vp_h, vp_v)
                n += len(img.boxes)
        assert n >= 50

    def test_same_quads_and_failures_on_planted_cases(self):
        rng = np.random.default_rng(11)
        boxes, vp_h, vp_v = [], [], []
        for k in range(600):
            x, y = rng.uniform(0, 1000, 2)
            w, h = rng.uniform(5, 200, 2)
            box = DetBox(x, y, x + w, y + h, rng.uniform())
            top = np.array([x + w / 2, y, 1.0])
            left = np.array([x, y + h / 2, 1.0])
            case = k % 6
            if case == 0:  # plausible facade geometry
                a = [rng.choice([-1, 1]) * rng.uniform(1500, 6000), rng.uniform(0, 800), 1.0]
                b = [rng.uniform(0, 1000), rng.choice([-1, 1]) * rng.uniform(4000, 20000), 1.0]
                if rng.uniform() < 0.3:
                    a[2] = b[2] = 0.0
            elif case == 1:  # coincident, or within rounding of it
                a = rng.normal(size=3)
                b = a * rng.choice([-2.0, 1.0, 3.5]) + rng.choice([0.0, 1e-12]) * rng.normal(size=3)
            elif case == 2:  # horizontal point on the top edge midpoint
                a, b = top * rng.uniform(0.1, 10), [0.0, 1.0, 0.0]
            elif case == 3:  # top and left construction lines identical
                a = top + rng.uniform(-3, 3) * (left - top)
                b = top + rng.uniform(-3, 3) * (left - top)
            elif case == 4:  # top line parallel to left line: corner at infinity
                d = np.array([rng.uniform(0.5, 1), rng.uniform(-0.5, 0.5), 0.0])
                a, b = d, left + rng.uniform(50, 500) * d
            else:  # points near the box: many quads fold over
                a = [*(rng.uniform([x - w, y - h], [x + 2 * w, y + 2 * h])), 1.0]
                b = [*(rng.uniform([x - w, y - h], [x + 2 * w, y + 2 * h])), 1.0]
            boxes.append(box)
            vp_h.append(a)
            vp_v.append(b)
        with np.errstate(all="raise"):
            reasons = _assert_adjust_equals_reference(boxes, np.array(vp_h), np.array(vp_v))
        counts = {r: reasons.count(r) for r in set(reasons)}
        for reason in (None, "coincident vps", "vp on a midpoint", "identical lines",
                       "corner at infinity", "not convex"):
            assert counts.get(reason, 0) >= 10, counts

    def test_one_box_is_a_one_row_view(self):
        box = DetBox(100, 200, 160, 290, 0.8)
        vp_h, vp_v = np.array([3000.0, 260.0, 1.0]), np.array([140.0, -9000.0, 1.0])
        [quad] = adjust_box([box], vp_h[None], vp_v[None])
        assert np.array_equal(adjust_box([box], vp_h, vp_v)[0].corners, quad.corners)
        assert adjust_box([box], vp_h[None], vp_h[None]) == [None]
        assert adjust_box([box], vp_h, vp_h) == [None]
        assert adjust_box([], np.empty((0, 3)), np.empty((0, 3))) == []


class TestAdjustmentPipeline:
    def test_estimated_vps_adjust_close_to_truth(self):
        # End to end: segments -> VPs -> adjusted boxes, on one slanted plane.
        h = view_homography(scale=1.0, tx=380, ty=240, p=slant_p(18, 330))
        plane = PlaneSpec(h_a=h, h_b=h, rows=3, cols=4)
        from objguide.synth import _plane_segments

        rng = np.random.default_rng(0)
        segs = _plane_segments(plane, h, rng, 0.0)
        table = segment_arrays(segs)
        vps = classify(estimate_vps(table, VpParams()), center=(640, 480))
        trues, boxes = [], []
        for world in _window_world_corners(plane):
            true = _project(h, world)
            lo, hi = true.min(axis=0), true.max(axis=0)
            trues.append(true)
            boxes.append(DetBox(lo[0], lo[1], hi[0], hi[1]))
        errs = []
        for box, true, vp_h, vp_v in zip(boxes, trues, *vote_box_vps(boxes, table, vps, VpParams())):
            [q] = adjust_box([box], vp_h, vp_v)
            errs.append(np.abs(q.corners - true).max())
        assert np.median(errs) < 2.0
