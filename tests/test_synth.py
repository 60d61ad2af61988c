import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from objguide.geom import DetBox, QuadBox, normalize_h, quad_iou
from objguide.guided import Match, MatchSet
from objguide.objmatch import Feature
from objguide.synth import (
    PRESETS,
    GroundTruth,
    NoiseSpec,
    PlaneSpec,
    SceneSpec,
    brute_force_nn,
    generate,
    homography_rms,
    pencil_segments,
    preset,
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

    @pytest.mark.parametrize("seed", [1.5, 2.0, "0"])
    def test_non_integer_seed_rejected(self, seed):
        # 1.5 used to build and then fail inside numpy's seeding.
        with pytest.raises(ValueError, match="an integer"):
            dataclasses.replace(preset("single", 0), seed=seed)

    def test_unknown_feature_mode_rejected(self):
        # Any mode but "corners+center" used to plant window centres only.
        with pytest.raises(ValueError, match="unknown feature_mode 'corners'"):
            _spec(feature_mode="corners")
        assert _spec(feature_mode="center").feature_mode == "center"

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


class _DrawLog:
    """A Generator that logs the method and result shape of each draw."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._log.append((name, np.shape(out)))
            return out

        return draw


def _draws(spec, monkeypatch):
    """The draws of generate's own generator, in order.

    Generators made after it (estimate_vps's, in the R stream) are not logged.
    """
    log, made, real = [], [], np.random.default_rng

    def default_rng(*args):
        made.append(real(*args))
        return _DrawLog(made[0], log) if len(made) == 1 else made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    generate(spec)
    return log


_HULL = [("normal", (2,)), ("normal", (2,)), ("uniform", ())]  # one box
_OUTLIER = [("uniform", (2,)), ("uniform", ()), ("uniform", ())]  # one segment
_DISTRACTOR = [("uniform", ())] * 3  # one box
_DESC = [("standard_normal", (128,))]  # one base descriptor, or a destroyed one
_NOISY = [("normal", (128,))]  # one view-b descriptor perturbation

# The draws of generate for each scene below.  They decide every scene, so a
# new noise model must draw from its own generator: its default then leaves
# these sequences unchanged.
_PINNED_DRAWS = {
    # Per window a hull for a then b, the descriptors, per outlier a segment
    # for a then b, view b's perturbations, the view-b id shuffle.
    "single": _HULL * 12 + _DESC * 30 + _OUTLIER * 20 + _NOISY * 30
    + [("permutation", (30,))],
    # Per plane as above; then the R stream (a then b), two distractors per view.
    "two-facade": (_HULL * 12 + _DESC * 30) * 2 + _OUTLIER * 20 + _HULL * 24
    + _DISTRACTOR * 4 + _NOISY * 60 + [("permutation", (60,))],
    # The shared descriptor, the hulls, the shuffle.
    "grid": _DESC + _HULL * 50 + [("permutation", (25,))],
    # As two-facade, with 5x8 and 5x6 windows and 30 outliers per view.
    "city-block": _HULL * 80 + _DESC * 200 + _HULL * 60 + _DESC * 150 + _OUTLIER * 60
    + _HULL * 140 + _DISTRACTOR * 4 + _NOISY * 350 + [("permutation", (350,))],
    # The codebook, 31 segment turns per view, hulls, outliers, one distractor
    # per view, the destroyed choice, then per feature a new descriptor (s) or
    # a perturbation (n).
    "knobs": [("standard_normal", (3, 128))] + [("uniform", ())] * 62 + _HULL * 12
    + _OUTLIER * 20 + _DISTRACTOR * 2 + [("choice", (8,))]
    + [(_DESC if c == "s" else _NOISY)[0] for c in "snnsnnnnnsnnnnsnnnssnnnnnnssnn"]
    + [("permutation", (30,))],
}


def _knobs_spec():
    """The single preset with every optional draw of generate switched on."""
    spec = preset("single", 0)
    noise = dataclasses.replace(spec.noise, segment_angle_noise=0.5, destroyed_frac=0.25,
                                distractor_boxes=1)
    return dataclasses.replace(spec, noise=noise, codebook=3)


@pytest.mark.parametrize("name", [*PRESETS, "knobs"])
def test_draw_order_pinned(name, monkeypatch):
    spec = _knobs_spec() if name == "knobs" else preset(name, 0)
    assert _draws(spec, monkeypatch) == _PINNED_DRAWS[name]


def _fields(x):
    """Every field of a spec, recursively; arrays as dtype, shape and bytes."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [(f.name, _fields(getattr(x, f.name)))
                                  for f in dataclasses.fields(x)]
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return [_fields(v) for v in x]
    return x


@pytest.mark.parametrize("seed", range(3))
def test_city_block_preset_is_the_benchmark_scene(seed):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenes", path)
    scenes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenes)
    assert _fields(preset("city-block", seed)) == _fields(scenes.city_block(seed))


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
        return GroundTruth(feature_pairs=pairs)

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
