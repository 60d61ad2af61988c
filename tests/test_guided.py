from dataclasses import replace

import numpy as np
import pytest

from objguide.geom import DetBox, Homography, QuadBox
from objguide.guided import (
    MatchSet,
    additional_matches,
    guided_match,
    match_pair,
    refine_homography,
    support_region,
)
from objguide.objmatch import Feature, MatchParams, ObjectGroup
from objguide.synth import (
    NoiseSpec,
    PlaneSpec,
    SceneSpec,
    brute_force_nn,
    generate,
    homography_rms,
    score,
    slant_p,
    view_homography,
)


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def _feat(fid, pos, desc):
    return Feature(id=fid, pos=pos, desc=_unit(desc))


def _single_plane(seed=0, desc_sigma=0.3, corner_sigma=1.0):
    planes = [
        PlaneSpec(
            h_a=view_homography(scale=1.0, tx=400, ty=250, p=slant_p(15, 330)),
            h_b=view_homography(scale=1.05, tx=430, ty=270, p=slant_p(25, 330)),
            rows=3, cols=4,
        )
    ]
    noise = NoiseSpec(corner_sigma=corner_sigma, desc_sigma=desc_sigma, outlier_segments=10)
    return generate(SceneSpec(seed=seed, planes=planes, noise=noise))


class TestSupportRegion:
    def test_dilated_membership(self):
        boxes = [QuadBox.from_detbox(DetBox(0, 0, 100, 100))]
        g = ObjectGroup(H=Homography.identity(), pairs=[(0, 0)])
        # Inside; inside the 50% dilation only; outside the dilation.
        pts = np.array([[50.0, 50.0], [-20.0, 50.0], [-60.0, 50.0]])
        mask = support_region(g, boxes, pts)
        assert mask.tolist() == [True, True, False]


class TestGuidedMatch:
    def _grid(self, n=4, pitch=100.0, shift=np.zeros(2), shared=None, dim=16):
        feats = []
        rng = np.random.default_rng(0)
        for k in range(n * n):
            pos = np.array([(k % n) * pitch, (k // n) * pitch]) + shift
            desc = shared if shared is not None else rng.standard_normal(dim)
            feats.append(_feat(k, pos, desc))
        return feats

    def test_repeated_texture_resolved_by_geometry(self):
        shared = _unit(np.arange(1.0, 17.0))
        f1 = self._grid(shared=shared)
        f2 = self._grid(shared=shared, shift=np.array([5.0, 3.0]))
        boxes = [QuadBox.from_detbox(DetBox(-50, -50, 350, 350))]
        g = ObjectGroup(H=Homography.translation(5, 3), pairs=[(0, 0)])
        got = guided_match(f1, f2, g, boxes, MatchParams())
        assert len(got) == 16
        assert all(m.i == m.j for m in got)  # identical ids = true partners
        # The unguided baseline has no way to tell identical descriptors apart.
        nn = brute_force_nn(f1, f2)
        assert sum(m.i == m.j for m in nn) <= len(nn)

    def test_radius_limits_candidates(self):
        shared = _unit(np.ones(8))
        f1 = [_feat(0, [0, 0], shared)]
        f2 = [_feat(0, [100.0, 0], shared)]
        boxes = [QuadBox.from_detbox(DetBox(-10, -10, 10, 10))]
        g = ObjectGroup(H=Homography.identity(), pairs=[(0, 0)])
        assert guided_match(f1, f2, g, boxes, MatchParams(r_search=20.0)) == []
        got = guided_match(f1, f2, g, boxes, MatchParams(r_search=150.0))
        assert [(m.i, m.j) for m in got] == [(0, 0)]

    def test_conflict_keeps_higher_similarity(self):
        target = _unit([1.0, 0, 0, 0])
        f1 = [
            _feat(0, [0, 0], [1.0, 0.3, 0, 0]),
            _feat(1, [2, 0], target),
        ]
        f2 = [_feat(0, [1.0, 0], target), _feat(1, [4.0, 0], [0.8, 0.6, 0, 0])]
        boxes = [QuadBox.from_detbox(DetBox(-10, -10, 10, 10))]
        g = ObjectGroup(H=Homography.identity(), pairs=[(0, 0)])
        got = guided_match(f1, f2, g, boxes, MatchParams(r_search=20.0))
        by_i = {m.i: m.j for m in got}
        assert by_i[1] == 0  # exact-match pair wins the conflict
        assert by_i[0] == 1  # loser retries its next candidate

    def test_claimed_features_skipped(self):
        shared = _unit(np.ones(4))
        f1 = [_feat(0, [0, 0], shared)]
        f2 = [_feat(0, [0, 0], shared)]
        boxes = [QuadBox.from_detbox(DetBox(-10, -10, 10, 10))]
        g = ObjectGroup(H=Homography.identity(), pairs=[(0, 0)])
        assert guided_match(f1, f2, g, boxes, MatchParams(), claimed1={0}) == []
        assert guided_match(f1, f2, g, boxes, MatchParams(), claimed2={0}) == []


class TestAdditionalMatches:
    def test_mutual_nn_with_ratio(self):
        f1 = [_feat(0, [0, 0], [1.0, 0, 0]), _feat(1, [5, 0], [0, 1.0, 0])]
        f2 = [_feat(0, [0, 0], [0, 1.0, 0.1]), _feat(1, [5, 0], [1.0, 0.1, 0])]
        got = additional_matches(f1, f2, MatchSet([], []), ratio=0.8)
        assert {(m.i, m.j) for m in got} == {(0, 1), (1, 0)}
        assert all(m.group_id == -1 for m in got)

    def test_ratio_rejects_ambiguous(self):
        f1 = [_feat(0, [0, 0], [1.0, 0, 0])]
        f2 = [_feat(0, [0, 0], [1.0, 0.05, 0]), _feat(1, [5, 0], [1.0, -0.05, 0])]
        assert additional_matches(f1, f2, MatchSet([], []), ratio=0.8) == []

    def test_already_matched_excluded(self):
        f1 = [_feat(0, [0, 0], [1.0, 0, 0])]
        f2 = [_feat(0, [0, 0], [1.0, 0, 0])]
        taken = MatchSet([__import__("objguide.guided", fromlist=["Match"]).Match(0, 0, 1.0, 0)], [])
        assert additional_matches(f1, f2, taken, ratio=0.8) == []


class TestRefineHomography:
    def test_noisy_group_refined_not_worse(self):
        for seed in range(5):
            scene = _single_plane(seed=seed, corner_sigma=1.5)
            from objguide.objmatch import greedy_match

            b1 = [QuadBox.from_detbox(b) for b in scene.img_a.boxes]
            b2 = [QuadBox.from_detbox(b) for b in scene.img_b.boxes]
            params = MatchParams()
            groups = greedy_match(b1, b2, scene.img_a.features, scene.img_b.features, params)
            assert groups
            g = groups[0]
            before = homography_rms(g.H, 0, scene.gt)
            refine_homography(g, b1, b2, [], [], params)
            after = homography_rms(g.H, 0, scene.gt)
            assert after <= before * 1.05

    def test_degenerate_fallback_keeps_initial(self):
        q = QuadBox.from_detbox(DetBox(0, 0, 10, 10))
        g = ObjectGroup(H=Homography.identity(), pairs=[(0, 0), (1, 1)])
        # Both pairs identical: the stacked system is rank deficient but the
        # identity already fits; refinement must never make things worse.
        h = refine_homography(g, [q, q], [q, q], [], [], MatchParams())
        pts = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], float)
        assert np.abs(h.map_points(pts) - pts).max() < 1e-8


class TestMatchPair:
    def test_end_to_end_single_plane(self):
        scene = _single_plane(seed=2)
        ms, report = match_pair(scene.img_a, scene.img_b)
        rep = score(ms, scene.img_b.features, scene.gt)
        assert rep.precision >= 0.95
        assert rep.recall >= 0.9
        assert report["groups"] >= 1
        assert report["guided_matches"] > 0

    def test_determinism(self):
        scene = _single_plane(seed=5)
        a, _ = match_pair(scene.img_a, scene.img_b)
        b, _ = match_pair(scene.img_a, scene.img_b)
        assert [(m.i, m.j, m.sim, m.group_id) for m in a.matches] == [
            (m.i, m.j, m.sim, m.group_id) for m in b.matches
        ]

    def test_matches_sorted_and_one_to_one(self):
        scene = _single_plane(seed=8)
        ms, _ = match_pair(scene.img_a, scene.img_b)
        keys = [(m.i, m.j) for m in ms.matches]
        assert keys == sorted(keys)
        assert len({m.i for m in ms.matches}) == len(ms.matches)
        assert len({m.j for m in ms.matches}) == len(ms.matches)

    def test_modes_all_run(self):
        scene = _single_plane(seed=1)
        for mode in ("O", "OA", "O+R"):
            ms, report = match_pair(scene.img_a, scene.img_b, mode=mode)
            assert report["mode"] == mode

    def test_one_featureless_image(self):
        # Boxes still group by geometry alone; with no features on one side
        # there is nothing to match.
        scene = _single_plane(seed=3)
        for img1, img2 in (
            (scene.img_a, replace(scene.img_b, features=[])),
            (replace(scene.img_a, features=[]), scene.img_b),
        ):
            ms, report = match_pair(img1, img2)
            assert report["groups"] >= 1
            assert ms.matches == []
