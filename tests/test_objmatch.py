import numpy as np
import pytest

from objguide.geom import DetBox, Homography, QuadBox, quad_iou
from objguide.objmatch import (
    DimensionMismatchError,
    Feature,
    MatchParams,
    NoDescriptorError,
    _round_cells,
    _support,
    box_descriptor,
    candidates,
    feature_table,
    gem_pool,
    greedy_match,
    hypothesis,
)
from objguide.synth import NoiseSpec, PlaneSpec, SceneSpec, generate, slant_p, view_homography

from test_geom import contains_points, corner_table, random_convex_quad


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def _feat(fid, pos, desc):
    return Feature(id=fid, pos=pos, desc=_unit(desc))


def _tables(scene):
    return feature_table(scene.img_a.features), feature_table(scene.img_b.features)


class TestGemPool:
    def test_single_descriptor_identity(self):
        d = _unit([1.0, 2, 3, 4])
        assert np.allclose(gem_pool(d[None], 3.0), d)

    def test_p_one_is_mean_for_nonnegative(self):
        descs = np.array([_unit([1, 0, 1, 0]), _unit([0, 1, 1, 0])])
        assert np.allclose(gem_pool(descs, 1.0), _unit(descs.mean(axis=0)))

    def test_large_p_approaches_max(self):
        descs = np.array([_unit([1.0, 0.1, 0, 0]), _unit([0.1, 1.0, 0, 0])])
        pooled = gem_pool(descs, 200.0)
        target = np.abs(descs).max(axis=0)
        assert np.allclose(pooled, _unit(target), atol=1e-2)

    def test_unit_output(self):
        rng = np.random.default_rng(1)
        descs = rng.standard_normal((10, 32))
        descs /= np.linalg.norm(descs, axis=1, keepdims=True)
        for p in (1.0, 2.0, 3.0, 10.0):
            assert np.isclose(np.linalg.norm(gem_pool(descs, p)), 1.0)

    def test_empty_raises(self):
        with pytest.raises(NoDescriptorError):
            gem_pool(np.empty((0, 8)), 3.0)


class TestMatchParams:
    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_eps_iou_outside_unit_interval_rejected(self, eps):
        with pytest.raises(ValueError):
            MatchParams(eps_iou=eps)

    def test_eps_iou_one_accepted(self):
        assert MatchParams(eps_iou=1.0).eps_iou == 1.0

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_candidates_below_one_rejected(self, k):
        # candidates() slices order[:k]; k = -1 would silently drop the last one.
        with pytest.raises(ValueError):
            MatchParams(k_candidates=k)

    def test_k_candidates_one_accepted(self):
        assert MatchParams(k_candidates=1).k_candidates == 1

    @pytest.mark.parametrize("r", [-1.0, -1e-9])
    def test_negative_search_radius_rejected(self, r):
        with pytest.raises(ValueError):
            MatchParams(r_search=r)

    def test_zero_search_radius_accepted(self):
        assert MatchParams(r_search=0.0).r_search == 0.0

    @pytest.mark.parametrize("field,value", [
        ("gem_p", np.nan),
        ("r_search", np.nan),
        ("vp_weight", np.nan),
        ("vp_weight", np.inf),
        ("vp_weight", -1.0),
    ])
    def test_nan_and_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            MatchParams(**{field: value})


@pytest.mark.parametrize("pos,desc", [
    ([np.inf, 2.0], [0.6, 0.8]),
    ([1.0, np.nan], [0.6, 0.8]),
    ([1.0, 2.0], [np.nan, 0.8]),
])
def test_feature_rejects_non_finite(pos, desc):
    with pytest.raises(ValueError, match="non-finite"):
        Feature(id=0, pos=pos, desc=desc)


class TestBoxDescriptor:
    def test_pools_only_inside_features(self):
        box = QuadBox.from_detbox(DetBox(0, 0, 10, 10))
        inside = _feat(0, [5, 5], [1, 0, 0])
        outside = _feat(1, [50, 50], [0, 1, 0])
        pos = np.array([inside.pos, outside.pos])
        desc = np.array([inside.desc, outside.desc])
        (d,) = box_descriptor(box.corners[None], pos, desc, 3.0)
        assert np.allclose(d, inside.desc)

    def test_empty_box_zero_sentinel(self):
        box = QuadBox.from_detbox(DetBox(0, 0, 10, 10))
        feats = [_feat(0, [50, 50], [0, 1, 0])]
        (d,) = box_descriptor(
            box.corners[None], np.array([feats[0].pos]), np.array([feats[0].desc]), 3.0
        )
        assert np.array_equal(d, np.zeros(3))
        # Cosine similarity of the sentinel to anything is 0.
        assert d @ feats[0].desc == 0.0

    def test_stacked_equals_per_box_pooling(self):
        rng = np.random.default_rng(12)
        corners = np.array([random_convex_quad(rng).corners for _ in range(25)])
        pos = rng.uniform(0, 1000, (400, 2))
        desc = rng.standard_normal((400, 8))
        desc /= np.linalg.norm(desc, axis=1, keepdims=True)
        got = box_descriptor(corners, pos, desc, 3.0)
        for q, row in zip(corners, got):
            inside = contains_points(q, pos)
            want = gem_pool(desc[inside], 3.0) if inside.any() else np.zeros(8)
            assert np.array_equal(row, want)
        assert box_descriptor(np.zeros((0, 4, 2)), pos, desc, 3.0).shape == (0, 8)


class TestFeatureTable:
    def test_rows_in_id_order(self):
        rng = np.random.default_rng(1)
        ids = rng.permutation(40) * 3 + 2
        feats = [_feat(int(i), rng.uniform(0, 100, 2), rng.standard_normal(5)) for i in ids]
        got_ids, pos, desc = feature_table(feats)
        assert got_ids.tolist() == sorted(ids.tolist())
        by_id = {f.id: f for f in feats}
        for i, p, d in zip(got_ids.tolist(), pos, desc):
            assert np.array_equal(p, by_id[i].pos) and np.array_equal(d, by_id[i].desc)

    def test_empty_table_takes_dim(self):
        ids, pos, desc = feature_table([], 7)
        assert ids.shape == (0,) and pos.shape == (0, 2) and desc.shape == (0, 7)

    def test_repeated_id_rejected(self):
        feats = [_feat(3, [0, 0], [1.0, 0]), _feat(1, [1, 0], [0, 1.0]), _feat(3, [2, 0], [1.0, 1])]
        with pytest.raises(ValueError, match="repeated feature id"):
            feature_table(feats)

    def test_mixed_descriptor_lengths_rejected(self):
        # One 2-d feature among 3-d ones cannot stack into one descriptor array.
        feats = [_feat(0, [0, 0], [1.0, 0, 0]), _feat(1, [1, 0], [0, 1.0]), _feat(2, [2, 0], [0, 0, 1.0])]
        with pytest.raises(DimensionMismatchError, match="descriptor dims differ"):
            feature_table(feats)
        assert issubclass(DimensionMismatchError, ValueError)


class TestCandidates:
    def test_order_and_truncation(self):
        d1 = np.array([_unit([1.0, 0, 0])])
        d2 = np.array([_unit([0.0, 1, 0]), _unit([1.0, 0.2, 0]), _unit([1.0, 0, 0])])
        assert candidates(0, d1, d2, 2) == [2, 1]

    def test_tie_breaks_to_lower_index(self):
        d1 = np.array([_unit([1.0, 0])])
        d2 = np.array([_unit([0.0, 1]), _unit([0.0, 1])])
        assert candidates(0, d1, d2, 2) == [0, 1]

    def test_empty(self):
        assert candidates(0, np.array([_unit([1.0, 0])]), np.empty((0, 2)), 3) == []


def support(h, b1, b2, eps):
    """Greedy one-to-one IoU support of h, as greedy_match scores it."""
    c1 = np.array([q.corners for q in b1])
    c2 = np.array([q.corners for q in b2])
    proj, cells, _ = _round_cells(h.m[None], c1, c2)
    return _support(proj[0], cells[0], c2, eps)[0]


class TestSupport:
    def _q(self, x0, y0, w=40.0, h=50.0):
        return QuadBox.from_detbox(DetBox(x0, y0, x0 + w, y0 + h))

    def test_identity_pairs_aligned_boxes(self):
        boxes = [self._q(0, 0), self._q(100, 0), self._q(0, 100)]
        pairs = support(Homography(np.eye(3)), boxes, boxes, 0.5)
        assert pairs == [(0, 0), (1, 1), (2, 2)]

    def test_translation_hypothesis(self):
        b1 = [self._q(0, 0), self._q(100, 0)]
        b2 = [self._q(30, 10), self._q(130, 10)]
        h = hypothesis(b1[0].corners, b2[0].corners)
        assert support(h, b1, b2, 0.5) == [(0, 0), (1, 1)]

    def test_one_to_one(self):
        # Two identical source boxes compete for a single target.
        b1 = [self._q(0, 0), self._q(0, 0)]
        b2 = [self._q(0, 0)]
        pairs = support(Homography(np.eye(3)), b1, b2, 0.5)
        assert len(pairs) == 1

    def test_threshold_respected(self):
        b1 = [self._q(0, 0)]
        b2 = [self._q(35, 0)]  # IoU well below 0.5
        assert support(Homography(np.eye(3)), b1, b2, 0.5) == []


class TestGreedyMatch:
    def _scene(self, seed=0, distractors=0):
        # The two facades carry different window layouts; identical repeated
        # grids on both planes would make plane assignment ambiguous.
        planes = [
            PlaneSpec(
                h_a=view_homography(scale=1.0, tx=80, ty=250, p=slant_p(10, 330)),
                h_b=view_homography(scale=1.0, tx=60, ty=270, p=slant_p(18, 330)),
                pitch_x=130.0, pitch_y=130.0, win_sizes=[(44.0, 92.0), (92.0, 44.0)],
            ),
            PlaneSpec(
                h_a=view_homography(scale=1.0, tx=760, ty=250, p=-slant_p(22, 330)),
                h_b=view_homography(scale=0.95, tx=790, ty=260, p=-slant_p(12, 330)),
                pitch_x=150.0, pitch_y=145.0, win_sizes=[(70.0, 56.0), (48.0, 104.0)],
            ),
        ]
        noise = NoiseSpec(corner_sigma=1.0, desc_sigma=0.2, distractor_boxes=distractors)
        return generate(SceneSpec(seed=seed, planes=planes, noise=noise))

    def test_two_planes_recovered(self):
        scene = self._scene(seed=3)
        c1, c2 = corner_table(scene.img_a.boxes), corner_table(scene.img_b.boxes)
        groups = greedy_match(c1, c2, *_tables(scene), MatchParams())
        found = {p for g in groups for p in g.pairs}
        true = set(scene.gt.box_pairs)
        assert len(found & true) / len(true) >= 0.9
        assert len(groups) >= 2

    def test_group_invariants(self):
        scene = self._scene(seed=7, distractors=2)
        c1, c2 = corner_table(scene.img_a.boxes), corner_table(scene.img_b.boxes)
        params = MatchParams()
        groups = greedy_match(c1, c2, *_tables(scene), params)
        seen1, seen2 = set(), set()
        for g in groups:
            assert g.support >= 2
            assert not g.refined
            for i, j in g.pairs:
                assert i not in seen1 and j not in seen2
                seen1.add(i)
                seen2.add(j)
                proj = QuadBox(
                    __import__("objguide.geom", fromlist=["canonical_quad_order"]).canonical_quad_order(
                        g.H.map_points(c1[i])
                    )
                )
                assert quad_iou(proj, QuadBox(c2[j])) >= params.eps_iou

    def test_determinism(self):
        scene = self._scene(seed=11, distractors=2)
        c1, c2 = corner_table(scene.img_a.boxes), corner_table(scene.img_b.boxes)
        run = lambda: greedy_match(c1, c2, *_tables(scene), MatchParams())
        ga, gb = run(), run()
        assert len(ga) == len(gb)
        for x, y in zip(ga, gb):
            assert x.pairs == y.pairs
            assert np.array_equal(x.H.m, y.H.m)

    def test_empty_inputs(self):
        none = np.empty((0, 4, 2))
        assert greedy_match(none, none, feature_table([]), feature_table([]), MatchParams()) == []
