import numpy as np
import pytest

from objguide.geom import DetBox, QuadBox, normalize_h, quad_iou
from objguide.guided import Match, MatchSet
from objguide.objmatch import Feature
from objguide.synth import (
    GroundTruth,
    NoiseSpec,
    PlaneSpec,
    SceneSpec,
    brute_force_nn,
    generate,
    homography_rms,
    pencil_segments,
    raster_iou,
    score,
    slant_p,
    view_homography,
)
from test_vanishing import one_row_angle


def _spec(seed=0, **kw):
    planes = kw.pop(
        "planes",
        [
            PlaneSpec(
                h_a=view_homography(scale=1.0, tx=400, ty=250, p=slant_p(15, 330)),
                h_b=view_homography(scale=1.05, tx=430, ty=270, p=slant_p(25, 330)),
            )
        ],
    )
    return SceneSpec(seed=seed, planes=planes, **kw)


class TestGenerate:
    def test_determinism(self):
        a = generate(_spec(seed=4))
        b = generate(_spec(seed=4))
        assert len(a.img_a.segments) == len(b.img_a.segments)
        for s, t in zip(a.img_a.segments, b.img_a.segments):
            assert np.array_equal(s.p, t.p) and np.array_equal(s.q, t.q)
        for f, g in zip(a.img_b.features, b.img_b.features):
            assert np.array_equal(f.pos, g.pos) and np.array_equal(f.desc, g.desc)
        assert a.gt.feature_pairs == b.gt.feature_pairs

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            _spec(seed=-1)

    def test_segments_at_least_20px(self):
        scene = generate(_spec(seed=1))
        for s in scene.img_a.segments + scene.img_b.segments:
            assert s.length >= 20.0

    def test_feature_pairs_permutation(self):
        scene = generate(_spec(seed=2))
        gt = scene.gt
        n = len(scene.img_a.features)
        assert sorted(gt.feature_pairs) == list(range(n))
        assert sorted(gt.feature_pairs.values()) == list(range(n))
        # True partners are related by the plane homography.
        h = gt.plane_homographies[0]
        pos_b = {f.id: f.pos for f in scene.img_b.features}
        for f in scene.img_a.features:
            pred = h.map_points(f.pos[None, :])[0]
            assert np.linalg.norm(pred - pos_b[gt.feature_pairs[f.id]]) < 1e-6

    def test_plane_homography_matches_corner_pairs(self):
        scene = generate(_spec(seed=3))
        pairs = scene.gt.corner_pairs[0]
        proj = scene.gt.plane_homographies[0].map_points(pairs[:, :2])
        assert np.max(np.linalg.norm(proj - pairs[:, 2:], axis=1)) < 1e-6
        assert homography_rms(scene.gt.plane_homographies[0], 0, scene.gt) < 1e-6

    def test_gt_vps_are_segment_consistent(self):
        scene = generate(_spec(seed=5))
        vp_h, vp_v = scene.gt.vps_a[0]
        res = [
            min(one_row_angle(s, vp_h), one_row_angle(s, vp_v))
            for s in scene.img_a.segments
        ]
        assert max(res) < 1e-5

    def test_noiseless_boxes_are_projected_hulls(self):
        scene = generate(_spec(seed=6))
        pairs = scene.gt.corner_pairs[0]
        for k, box in enumerate(scene.img_a.boxes):
            pa = pairs[4 * k : 4 * k + 4, :2]
            assert np.abs(box.corners[0] - pa.min(axis=0)).max() < 1e-9
            assert np.abs(box.corners[2] - pa.max(axis=0)).max() < 1e-9

    def test_distractors_marked(self):
        scene = generate(_spec(seed=7, noise=NoiseSpec(distractor_boxes=2)))
        assert scene.gt.box_plane_a.count(-1) == 2
        assert scene.gt.box_plane_b.count(-1) == 2
        assert len(scene.img_a.boxes) == len(scene.gt.box_plane_a)

    def test_uniform_descriptor_mode(self):
        scene = generate(_spec(seed=8, uniform_descriptor=True, feature_mode="center"))
        descs = np.array([f.desc for f in scene.img_a.features])
        assert np.abs(descs - descs[0]).max() == 0.0

    def test_codebook_mode_reuses_descriptors(self):
        scene = generate(_spec(seed=9, codebook=4))
        descs = np.array([f.desc for f in scene.img_a.features])
        assert len(np.unique(np.round(descs, 9), axis=0)) == 4

    def test_destroyed_descriptors_break_matches(self):
        clean = generate(_spec(seed=10))
        noisy = generate(_spec(seed=10, noise=NoiseSpec(destroyed_frac=0.5)))
        s_clean = score(brute_force_nn(clean.img_a.features, clean.img_b.features),
                        clean.img_b.features, clean.gt)
        s_noisy = score(brute_force_nn(noisy.img_a.features, noisy.img_b.features),
                        noisy.img_b.features, noisy.gt)
        assert s_clean.recall == 1.0
        assert s_noisy.recall < s_clean.recall

    def test_rect_boxes_generated(self):
        scene = generate(_spec(seed=11, with_rect_boxes=True))
        assert scene.img_a.rect_boxes
        assert all(plane == 0 for plane, _ in scene.img_a.rect_boxes)


class TestPencilSegments:
    def test_residuals_zero(self):
        rng = np.random.default_rng(0)
        for vp in (np.array([2000.0, 300, 1]), np.array([0.0, 1, 0])):
            for s in pencil_segments(vp, 20, rng):
                assert one_row_angle(s, vp) < 1e-5

    def test_count_and_region(self):
        rng = np.random.default_rng(1)
        segs = pencil_segments(np.array([1.0, 0, 0]), 15, rng, region=(100, 100, 200, 200))
        assert len(segs) == 15
        for s in segs:
            assert 100 <= s.midpoint[0] <= 200 and 100 <= s.midpoint[1] <= 200


class TestRasterIou:
    def test_known_values(self):
        a = QuadBox.from_detbox(DetBox(0, 0, 1, 1))
        b = QuadBox.from_detbox(DetBox(0.5, 0, 1.5, 1))
        assert raster_iou(a, a, 200) == pytest.approx(1.0)
        assert raster_iou(a, b, 500) == pytest.approx(1 / 3, abs=0.01)

    def test_disjoint(self):
        a = QuadBox.from_detbox(DetBox(0, 0, 1, 1))
        b = QuadBox.from_detbox(DetBox(5, 5, 6, 6))
        assert raster_iou(a, b, 100) == 0.0


class TestScore:
    def _gt(self, pairs):
        return GroundTruth(
            box_pairs=[], box_plane_a=[], box_plane_b=[], feature_pairs=pairs,
            plane_homographies=[], vps_a=[], vps_b=[], plane_x_extent_a=[],
            plane_x_extent_b=[], corner_pairs=[],
        )

    def test_exact_and_tolerant(self):
        feats2 = [
            Feature(id=0, pos=[0, 0], desc=[1.0, 0]),
            Feature(id=1, pos=[2, 0], desc=[0, 1.0]),
        ]
        gt = self._gt({0: 0, 1: 1})
        ms = [Match(0, 0, 1.0, 0), Match(1, 0, 0.5, 0)]
        rep = score(ms, feats2, gt, tol=1.0)
        assert rep.n_correct == 1
        assert rep.precision == 0.5 and rep.recall == 0.5
        rep = score(ms, feats2, gt, tol=3.0)  # position of f2[0] within 3px of f2[1]
        assert rep.n_correct == 2

    def test_empty_matches_vacuous_precision(self):
        rep = score([], [], self._gt({0: 0}), tol=1.0)
        assert rep.precision == 1.0 and rep.recall == 0.0

    def test_matchset_accepted(self):
        feats2 = [Feature(id=0, pos=[0, 0], desc=[1.0, 0])]
        ms = MatchSet([Match(0, 0, 1.0, -1)], [])
        rep = score(ms, feats2, self._gt({0: 0}))
        assert rep.precision == 1.0 and rep.recall == 1.0

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_invalid_tolerance_rejected(self, tol):
        feats2 = [Feature(id=0, pos=[0, 0], desc=[1.0, 0])]
        with pytest.raises(ValueError, match="tol must be >= 0"):
            score([Match(0, 0, 1.0, -1)], feats2, self._gt({0: 0}), tol=tol)
