from dataclasses import replace

import numpy as np
import pytest

from objguide import synth
from objguide.geom import DetBox, Homography, _at_infinity
from objguide.guided import (
    R_SEARCH,
    SIM_THRESH,
    Match,
    MatchSet,
    additional_matches,
    guided_match,
    match_pair,
    refine_homography,
    support_region,
)
from objguide import guided
from objguide.objmatch import (
    DimensionMismatchError,
    Feature,
    ObjectGroup,
    feature_table,
)
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
from objguide.vanishing import segment_arrays

from test_geom import corner_table


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def _feat(fid, pos, desc):
    return Feature(id=fid, pos=pos, desc=_unit(desc))


def _free(table, taken):
    """Free mask of a feature table: the rows whose ids are not taken."""
    return ~np.isin(table[0], list(taken))


def _rows(table, free):
    return tuple(col[free] for col in table)


def _guided(feats1, feats2, g, boxes, r_search=R_SEARCH, group_id=0, claimed1=(), claimed2=()):
    """guided_match on the features' tables with the claimed ids masked out."""
    t1, t2 = feature_table(feats1), feature_table(feats2)
    free1, free2 = _free(t1, claimed1), _free(t2, claimed2)
    return guided_match(t1, t2, g, boxes, r_search, group_id, free1, free2)


def _additional(feats1, feats2, already, ratio):
    """additional_matches on the rows left free by the matches already made."""
    t1, t2 = feature_table(feats1), feature_table(feats2)
    free1 = _free(t1, {m.i for m in already.matches})
    free2 = _free(t2, {m.j for m in already.matches})
    return additional_matches(_rows(t1, free1), _rows(t2, free2), ratio)


def _shift(tx, ty):
    return Homography(np.array([[1.0, 0, tx], [0, 1, ty], [0, 0, 1]]))


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
        boxes = corner_table([DetBox(0, 0, 100, 100)])
        g = ObjectGroup(H=Homography(np.eye(3)), pairs=[(0, 0)])
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
        boxes = corner_table([DetBox(-50, -50, 350, 350)])
        g = ObjectGroup(H=_shift(5, 3), pairs=[(0, 0)])
        got = _guided(f1, f2, g, boxes)
        assert len(got) == 16
        assert all(m.i == m.j for m in got)  # identical ids = true partners
        # The unguided baseline has no way to tell identical descriptors apart.
        nn = brute_force_nn(f1, f2)
        assert sum(m.i == m.j for m in nn) <= len(nn)

    def test_radius_limits_candidates(self):
        shared = _unit(np.ones(8))
        f1 = [_feat(0, [0, 0], shared)]
        f2 = [_feat(0, [100.0, 0], shared)]
        boxes = corner_table([DetBox(-10, -10, 10, 10)])
        g = ObjectGroup(H=Homography(np.eye(3)), pairs=[(0, 0)])
        assert _guided(f1, f2, g, boxes, 20.0) == []
        got = _guided(f1, f2, g, boxes, 150.0)
        assert [(m.i, m.j) for m in got] == [(0, 0)]

    def test_conflict_keeps_higher_similarity(self):
        target = _unit([1.0, 0, 0, 0])
        f1 = [
            _feat(0, [0, 0], [1.0, 0.3, 0, 0]),
            _feat(1, [2, 0], target),
        ]
        f2 = [_feat(0, [1.0, 0], target), _feat(1, [4.0, 0], [0.8, 0.6, 0, 0])]
        boxes = corner_table([DetBox(-10, -10, 10, 10)])
        g = ObjectGroup(H=Homography(np.eye(3)), pairs=[(0, 0)])
        got = _guided(f1, f2, g, boxes, 20.0)
        by_i = {m.i: m.j for m in got}
        assert by_i[1] == 0  # exact-match pair wins the conflict
        assert by_i[0] == 1  # the other one takes its next candidate

    def test_claimed_features_skipped(self):
        shared = _unit(np.ones(4))
        f1 = [_feat(0, [0, 0], shared)]
        f2 = [_feat(0, [0, 0], shared)]
        boxes = corner_table([DetBox(-10, -10, 10, 10)])
        g = ObjectGroup(H=Homography(np.eye(3)), pairs=[(0, 0)])
        t1, t2 = feature_table(f1), feature_table(f2)
        for free in (([False], [True]), ([True], [False])):
            free1, free2 = map(np.array, free)
            assert guided_match(t1, t2, g, boxes, R_SEARCH, 0, free1, free2) == []
            assert (free1.tolist(), free2.tolist()) == free  # nothing matched, nothing cleared
        assert [(m.i, m.j) for m in _guided(f1, f2, g, boxes)] == [(0, 0)]


def _reference_guided(feats1, feats2, g, boxes1, r_search, claimed1=(), claimed2=()):
    """Per-feature candidate lists resolved by deferred acceptance."""
    pool2 = [f for f in feats2 if f.id not in claimed2]
    if not pool2:
        return []
    pos2 = np.array([f.pos for f in pool2])
    desc2 = np.array([f.desc for f in pool2])
    pool1 = [f for f in sorted(feats1, key=lambda f: f.id) if f.id not in claimed1]
    pos1 = np.array([f.pos for f in pool1], dtype=float).reshape(-1, 2)
    ph = np.column_stack([pos1, np.ones(len(pos1))]) @ g.H.m.T
    usable = support_region(g, boxes1, pos1) & ~_at_infinity(ph)
    cand_lists, order1 = {}, []
    for k in np.flatnonzero(usable):
        f = pool1[k]
        d = np.linalg.norm(pos2 - ph[k, :2] / ph[k, 2], axis=1)
        near = np.flatnonzero(d <= r_search)
        sims = desc2[near] @ f.desc
        cands = sorted(
            ((float(s), pool2[int(n)].id) for s, n in zip(sims, near) if s >= SIM_THRESH),
            key=lambda t: (-t[0], t[1]),
        )
        if cands:
            cand_lists[f.id] = cands
            order1.append(f.id)
    assigned_j = {}  # j -> (sim, i)
    ptr = {i: 0 for i in order1}
    queue = list(order1)
    while queue:
        i = queue.pop(0)
        cands = cand_lists[i]
        while ptr[i] < len(cands):
            sim, j = cands[ptr[i]]
            if j not in assigned_j:
                assigned_j[j] = (sim, i)
                break
            held_sim, held_i = assigned_j[j]
            if sim > held_sim:
                assigned_j[j] = (sim, i)
                ptr[held_i] += 1
                queue.append(held_i)
                break
            ptr[i] += 1
    return sorted((i, j, sim) for j, (sim, i) in assigned_j.items())


class TestGuidedMatchReference:
    def _instance(self, rng):
        """Crowded random pools with spaced-out, shuffled ids and a near-identity H."""
        n1, n2, dim = rng.integers(1, 40), rng.integers(1, 40), int(rng.integers(2, 6))

        def feats(n, id_base):
            ids = rng.permutation(n) * 3 + id_base
            pos = rng.uniform(0, 60, (n, 2))
            return [_feat(int(i), p, rng.standard_normal(dim)) for i, p in zip(ids, pos)]

        f1, f2 = feats(n1, 1), feats(n2, 2)
        m = np.eye(3)
        m[:2] += rng.uniform(-0.05, 0.05, (2, 3)) * [1, 1, 100]
        g = ObjectGroup(H=Homography(m), pairs=[(0, 0)])
        boxes = corner_table([DetBox(5, 5, 45, 45)])
        r_search = float(rng.uniform(5, 30))
        claimed1 = {f.id for f in f1 if rng.uniform() < 0.2}
        claimed2 = {f.id for f in f2 if rng.uniform() < 0.2}
        return f1, f2, g, boxes, r_search, claimed1, claimed2

    def test_equals_deferred_acceptance_without_ties(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 250:
            f1, f2, g, boxes, r_search, c1, c2 = self._instance(rng)
            all_sims = np.array([f.desc for f in f1]) @ np.array([f.desc for f in f2]).T
            # Similarities within 1e-12 of each other could order differently
            # in the two dot products; such draws are left out.
            gaps = np.diff(np.sort(all_sims.ravel()))
            if gaps.size and gaps.min() < 1e-12:
                continue
            want = _reference_guided(f1, f2, g, boxes, r_search, c1, c2)
            got = _guided(f1, f2, g, boxes, r_search, 4, c1, c2)
            assert [(m.i, m.j) for m in got] == [(i, j) for i, j, _ in want]
            assert all(m.group_id == 4 for m in got)
            # The reference's subset gemv and np.vecdot may round differently.
            sims = np.array([m.sim for m in got]) - [s for _, _, s in want]
            assert np.all(np.abs(sims) <= 4 * np.finfo(float).eps)
            checked += 1

    def test_clears_exactly_the_matched_rows(self):
        rng = np.random.default_rng(9)
        matched = 0
        for _ in range(30):
            f1, f2, g, boxes, r_search, c1, c2 = self._instance(rng)
            t1, t2 = feature_table(f1), feature_table(f2)
            free1, free2 = _free(t1, c1), _free(t2, c2)
            before1, before2 = free1.copy(), free2.copy()
            got = guided_match(t1, t2, g, boxes, r_search, 0, free1, free2)
            assert set(t1[0][before1 & ~free1].tolist()) == {m.i for m in got}
            assert set(t2[0][before2 & ~free2].tolist()) == {m.j for m in got}
            assert np.all(free1 <= before1) and np.all(free2 <= before2)
            assert len({m.i for m in got}) == len(got) == len({m.j for m in got})
            matched += len(got)
        assert matched > 0

    def test_exact_tie_goes_to_lower_image1_id(self):
        # Image-1 features 0 and 1 have the same cosine 0.6 with image-2
        # feature 1.  Feature 2 takes image-2 feature 0 from feature 0, and
        # the tie for image-2 feature 1 goes to the lower id, 0.  Deferred
        # acceptance, where the holder of a tie keeps it, gave [(1, 1), (2, 0)].
        f2 = [_feat(0, [1, 0], [1.0, 0]), _feat(1, [3, 1], [0, 1.0])]
        f1 = [
            _feat(0, [0, 0], [0.8, 0.6]),
            _feat(1, [2, 0], [-0.8, 0.6]),
            _feat(2, [0, 2], [0.96, -0.28]),
        ]
        boxes = corner_table([DetBox(-10, -10, 10, 10)])
        g = ObjectGroup(H=Homography(np.eye(3)), pairs=[(0, 0)])
        got = _guided(f1, f2, g, boxes)
        assert [(m.i, m.j) for m in got] == [(0, 1), (2, 0)]
        assert [(i, j) for i, j, _ in _reference_guided(f1, f2, g, boxes, R_SEARCH)] == [
            (1, 1), (2, 0)
        ]


def _reference_additional(feats1, feats2, already, ratio):
    """Mutual NN with a stable argsort of each full row."""
    used1 = {m.i for m in already.matches}
    used2 = {m.j for m in already.matches}
    pool1 = [f for f in sorted(feats1, key=lambda f: f.id) if f.id not in used1]
    pool2 = [f for f in sorted(feats2, key=lambda f: f.id) if f.id not in used2]
    if not pool1 or not pool2:
        return []
    sims = np.array([f.desc for f in pool1]) @ np.array([f.desc for f in pool2]).T

    def dist(s):
        return float(np.sqrt(max(2.0 - 2.0 * s, 0.0)))

    best2 = np.argmax(sims, axis=0)
    out = []
    for a, f in enumerate(pool1):
        order = np.argsort(-sims[a], kind="stable")
        b = int(order[0])
        if int(best2[b]) != a:
            continue
        if len(order) > 1:
            s1, s2 = float(sims[a, b]), float(sims[a, int(order[1])])
            if not dist(s1) < ratio * dist(s2):
                continue
        out.append((f.id, pool2[b].id, float(sims[a, b])))
    return out


class TestAdditionalMatchesReference:
    def _pools(self, rng, n1, n2, dim=4, dup=False):
        d1 = rng.standard_normal((n1, dim))
        d2 = rng.standard_normal((n2, dim))
        if dup:
            # Duplicated descriptors tie whole rows and columns exactly.
            d2[rng.integers(0, n2, n2 // 2)] = d2[0]
            d1[rng.integers(0, n1, n1 // 2)] = d1[0]
            d2[-1] = d1[0]
        f1 = [_feat(int(i), [0, 0], d) for i, d in zip(rng.permutation(n1) * 2, d1)]
        f2 = [_feat(int(i), [0, 0], d) for i, d in zip(rng.permutation(n2) * 2 + 1, d2)]
        return f1, f2

    def _check(self, f1, f2, already, ratio):
        got = _additional(f1, f2, already, ratio)
        want = _reference_additional(f1, f2, already, ratio)
        assert [(m.i, m.j, m.sim) for m in got] == want
        assert all(m.group_id == -1 for m in got)
        return got

    @pytest.mark.parametrize("dup", [False, True])
    def test_random_pools(self, dup):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n1, n2 = rng.integers(1, 30, 2)
            f1, f2 = self._pools(rng, n1, n2, dup=dup)
            self._check(f1, f2, MatchSet([], []), float(rng.uniform(0.5, 1.0)))

    def test_one_feature_pool2_skips_ratio_test(self):
        rng = np.random.default_rng(4)
        f1, f2 = self._pools(rng, 6, 1)
        assert len(self._check(f1, f2, MatchSet([], []), 0.01)) == 1

    def test_already_matched_features(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f1, f2 = self._pools(rng, 20, 15, dup=True)
            taken = [
                Match(f1[k].id, f2[k].id, 0.5, 0) for k in rng.choice(15, 6, replace=False)
            ]
            self._check(f1, f2, MatchSet(taken, []), 0.9)
            # Every image-1 feature is taken, so nothing is left to pair.
            gone = [Match(f.id, f2[0].id, 0.5, 0) for f in f1]
            assert self._check(f1, f2, MatchSet(gone, []), 0.9) == []


class TestAdditionalMatches:
    def test_mutual_nn_with_ratio(self):
        f1 = [_feat(0, [0, 0], [1.0, 0, 0]), _feat(1, [5, 0], [0, 1.0, 0])]
        f2 = [_feat(0, [0, 0], [0, 1.0, 0.1]), _feat(1, [5, 0], [1.0, 0.1, 0])]
        got = additional_matches(feature_table(f1), feature_table(f2), ratio=0.8)
        assert {(m.i, m.j) for m in got} == {(0, 1), (1, 0)}
        assert all(m.group_id == -1 for m in got)

    def test_ratio_rejects_ambiguous(self):
        f1 = [_feat(0, [0, 0], [1.0, 0, 0])]
        f2 = [_feat(0, [0, 0], [1.0, 0.05, 0]), _feat(1, [5, 0], [1.0, -0.05, 0])]
        assert additional_matches(feature_table(f1), feature_table(f2), ratio=0.8) == []

    def test_already_matched_excluded(self):
        f1 = [_feat(0, [0, 0], [1.0, 0, 0])]
        f2 = [_feat(0, [0, 0], [1.0, 0, 0])]
        taken = MatchSet([Match(0, 0, 1.0, 0)], [])
        assert _additional(f1, f2, taken, ratio=0.8) == []


class TestRefineHomography:
    def test_noisy_group_refined_not_worse(self):
        for seed in range(5):
            scene = _single_plane(seed=seed, corner_sigma=1.5)
            from objguide.objmatch import greedy_match

            b1, b2 = corner_table(scene.img_a.boxes), corner_table(scene.img_b.boxes)
            tables = feature_table(scene.img_a.features), feature_table(scene.img_b.features)
            groups = greedy_match(b1, b2, *tables)
            assert groups
            g = groups[0]
            before = homography_rms(g.H, 0, scene.gt)
            refine_homography(g, b1, b2, [], [])
            after = homography_rms(g.H, 0, scene.gt)
            assert after <= before * 1.05

    def test_degenerate_fallback_keeps_initial(self):
        q = corner_table([DetBox(0, 0, 10, 10)] * 2)
        g = ObjectGroup(H=Homography(np.eye(3)), pairs=[(0, 0), (1, 1)])
        # Both pairs identical: the stacked system is rank deficient but the
        # identity already fits; refinement must never make things worse.
        h = refine_homography(g, q, q, [], [])
        pts = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], float)
        assert np.abs(h.map_points(pts) - pts).max() < 1e-8

    def test_empty_group_keeps_initial(self):
        # A groups file may hold a group with no pairs: nothing to refit.
        g = ObjectGroup(H=Homography(np.eye(3)), pairs=[])
        none = np.empty((0, 4, 2))
        assert refine_homography(g, none, none, [], []) is g.H
        assert not g.refined


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

    def test_repeated_feature_ids_rejected(self):
        # Ids that collide would silently merge features into one row.
        scene = generate(synth.preset("single", 0))
        feats = [replace(f, id=f.id % 10) for f in scene.img_a.features]
        with pytest.raises(ValueError, match="repeated feature id"):
            match_pair(replace(scene.img_a, features=feats), scene.img_b)

    def test_descriptor_lengths_differ_between_images(self, monkeypatch):
        # Rejected before either image's vanishing points are estimated.
        scene = generate(synth.preset("single", 0))
        shorter = [replace(f, desc=_unit(f.desc[:64])) for f in scene.img_b.features]
        calls, image_vps = [], guided.image_vps
        monkeypatch.setattr(guided, "image_vps", lambda *a: calls.append(a) or image_vps(*a))
        with pytest.raises(DimensionMismatchError, match="128 vs 64"):
            match_pair(scene.img_a, replace(scene.img_b, features=shorter))
        assert calls == []

    def test_descriptor_lengths_differ_within_an_image(self):
        scene = generate(synth.preset("single", 0))
        feats = list(scene.img_a.features)
        feats[3] = replace(feats[3], desc=_unit(feats[3].desc[:64]))
        with pytest.raises(DimensionMismatchError):
            match_pair(replace(scene.img_a, features=feats), scene.img_b)

    def test_one_segment_table_per_image(self, monkeypatch):
        scene = generate(synth.preset("two-facade", 0))
        tables = []

        def counted(segments):
            tables.append(len(segments))
            return segment_arrays(segments)

        monkeypatch.setattr(guided, "segment_arrays", counted)
        ms, report = match_pair(scene.img_a, scene.img_b, mode="(O+R)A")
        assert tables == [len(scene.img_a.segments), len(scene.img_b.segments)]
        assert report["groups"] >= 1

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
