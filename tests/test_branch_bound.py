"""Exactness of the bounded grouping search and of the prefiltered dedup.

The references here are brute force: every cell of every hypothesis's IoU
matrix is computed with quad_iou on QuadBox(canonical_quad_order(
h.map_points(...))), one stacked call per row (equal to one call per cell,
see test_geom's test_stacked_equals_one_row_calls), no hypothesis is
skipped, and every kept detection is compared against every candidate.
The optimized code must give the same groups (pairs and homography bytes)
and the same kept detections.
"""

import numpy as np
import pytest

from objguide.cli import _preset_scene
from objguide.geom import (
    DegenerateInputError,
    DetBox,
    EstimationError,
    Homography,
    QuadBox,
    canonical_quad_order,
    dlt_homography,
    quad_iou,
)
from objguide.objmatch import MatchParams, feature_table, gem_pool, greedy_assign, greedy_match
from objguide.rectify import DEDUP_IOU, MODES, merge_detections
from objguide.synth import generate

from test_acceptance import _two_plane_spec
from test_geom import contains_points, corner_table


def _reference_descriptors(boxes, feats, dim, p):
    out = []
    for q in boxes:
        inside = [f.desc for f in feats if contains_points(q.corners, f.pos[None])[0]]
        out.append(gem_pool(np.array(inside), p) if inside else np.zeros(dim))
    return np.array(out).reshape(len(boxes), dim)


def _reference_pairs(iou, eps):
    pairs = []
    iou = iou.copy()
    while iou.size and iou.max() >= eps:
        i, j = np.unravel_index(int(np.argmax(iou)), iou.shape)
        pairs.append((int(i), int(j)))
        iou[i, :] = -1.0
        iou[:, j] = -1.0
    return sorted(pairs)


@pytest.mark.parametrize("seed", range(5))
def test_greedy_assign_matches_argmax_loop(seed):
    # Small integer scores make exact ties common; edges come in random
    # order and their labels are spaced out, so only (score, a, b) decides.
    rng = np.random.default_rng(seed)
    for _ in range(100):
        score = rng.integers(0, 5, rng.integers(1, 8, 2)).astype(float)
        a, b = np.nonzero(score >= 1.0)
        perm = rng.permutation(len(a))
        a, b = a[perm], b[perm]
        kept = greedy_assign(score[a, b], 3 * a + 7, 5 * b + 2)
        assert list(zip(a[kept].tolist(), b[kept].tolist())) == _reference_pairs(score, 1.0)


def reference_greedy_match(boxes1, boxes2, feats1, feats2, params):
    """Unbounded greedy grouping with all-pairs IoU scoring."""
    ref = feats1 or feats2
    dim = len(ref[0].desc) if ref else 0
    d1 = _reference_descriptors(boxes1, feats1, dim, params.gem_p)
    d2 = _reference_descriptors(boxes2, feats2, dim, params.gem_p)
    corners2 = np.array([q.corners for q in boxes2]).reshape(-1, 4, 2)
    rem1, rem2 = list(range(len(boxes1))), list(range(len(boxes2)))
    groups = []
    while rem1 and rem2:
        best = None
        for i in rem1:
            sims = d2[rem2] @ d1[i]
            for lj in np.argsort(-sims, kind="stable")[: params.k_candidates]:
                try:
                    h = dlt_homography(boxes1[i].corners, boxes2[rem2[lj]].corners)
                except (EstimationError, DegenerateInputError):
                    continue
                iou = np.zeros((len(rem1), len(rem2)))
                for a, i2 in enumerate(rem1):
                    try:
                        pq = QuadBox(canonical_quad_order(h.map_points(boxes1[i2].corners)))
                    except DegenerateInputError:
                        continue
                    iou[a] = quad_iou(
                        np.broadcast_to(pq.corners, (len(rem2), 4, 2)), corners2[rem2]
                    )
                local = _reference_pairs(iou, params.eps_iou)
                if len(local) < 2:
                    continue
                pairs = [(rem1[a], rem2[b]) for a, b in local]
                key = (len(pairs), float(sum(iou[a, b] for a, b in local)),
                       [(-a, -b) for a, b in pairs])
                if best is None or key > best[0]:
                    best = (key, pairs, h)
        if best is None:
            break
        _, pairs, h = best
        groups.append((pairs, h.m.tobytes()))
        rem1 = [i for i in rem1 if i not in {a for a, _ in pairs}]
        rem2 = [j for j in rem2 if j not in {b for _, b in pairs}]
    return groups


def _assert_same_groups(boxes1, boxes2, feats1, feats2, params=None):
    params = params or MatchParams()
    # A featureless image's table takes the other image's dimension, as in
    # match_pair.
    ref = feats1 or feats2
    dim = len(ref[0].desc) if ref else 0
    tables = feature_table(feats1, dim), feature_table(feats2, dim)
    got = greedy_match(corner_table(boxes1), corner_table(boxes2), *tables, params)
    want = reference_greedy_match(boxes1, boxes2, feats1, feats2, params)
    assert [(g.pairs, g.H.m.tobytes()) for g in got] == want
    return got


def _scene_boxes(scene):
    return (
        [QuadBox.from_detbox(b) for b in scene.img_a.boxes],
        [QuadBox.from_detbox(b) for b in scene.img_b.boxes],
    )


def _box(x0, y0, x1, y1):
    return QuadBox.from_detbox(DetBox(x0, y0, x1, y1))


@pytest.mark.parametrize("seed", range(20))
def test_criterion_6_scenes_match_reference(seed):
    scene = generate(_two_plane_spec(seed))
    b1, b2 = _scene_boxes(scene)
    groups = _assert_same_groups(b1, b2, scene.img_a.features, scene.img_b.features)
    assert groups


@pytest.mark.parametrize("preset", ["two-facade", "grid"])
def test_cli_presets_match_reference(preset):
    scene = generate(_preset_scene(preset, 0))
    b1, b2 = _scene_boxes(scene)
    groups = _assert_same_groups(b1, b2, scene.img_a.features, scene.img_b.features)
    assert groups


def test_tie_on_best_count_goes_to_the_later_hypothesis():
    # Both box pairs induce a hypothesis supported by 2 pairs.  The second
    # one registers the other box better (IoU 40/42 against 35/47), so it
    # wins on summed IoU although its count only ties the best so far.
    b1 = [_box(0, 0, 40, 50), _box(100, 0, 140, 50)]
    b2 = [_box(30, 10, 72, 60), _box(130, 10, 170, 60)]
    (group,) = _assert_same_groups(b1, b2, [], [])
    assert group.pairs == [(0, 0), (1, 1)]
    assert np.allclose(group.H.map_points(b1[1].corners), b2[1].corners)
    assert not np.allclose(group.H.map_points(b1[0].corners), b2[0].corners)


def test_quad_projected_to_infinity():
    # Under h the line x = 512 of image 1 goes to infinity, so the last
    # box, whose right edge lies on it, has no finite image.
    h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0 / 512, 0, 1.0]]))
    b1 = [_box(0, 0, 40, 50), _box(60, 0, 100, 50), _box(100, 100, 140, 150),
          _box(472, 0, 512, 50)]
    b2 = [QuadBox(canonical_quad_order(h.map_points(q.corners))) for q in b1[:3]]
    b2.append(_box(300, 300, 340, 350))
    groups = _assert_same_groups(b1, b2, [], [])
    assert groups[0].pairs == [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(DegenerateInputError):
        groups[0].H.map_points(b1[3].corners)


def test_featureless_image_matches_reference():
    scene = generate(_preset_scene("two-facade", 1))
    b1, b2 = _scene_boxes(scene)
    groups = _assert_same_groups(b1, b2, scene.img_a.features, [])
    assert groups


def _reference_merge(pool):
    order = sorted(range(len(pool)), key=lambda i: (-pool[i].score, i))
    kept = []
    for i in order:
        if all(quad_iou(pool[i], q) < DEDUP_IOU for q in kept):
            kept.append(pool[i])
    return kept


def test_merge_detections_matches_brute_force_dedup():
    rng = np.random.default_rng(5)
    scene = generate(_preset_scene("two-facade", 2))

    def jittered(sigma):
        out = []
        for b in scene.img_a.boxes:
            c = canonical_quad_order(b.corners + rng.normal(0.0, sigma, (4, 2)))
            out.append(QuadBox(c, float(rng.choice([0.5, 0.7, 0.9]))))
        return out

    orthogonal = [QuadBox.from_detbox(b) for b in scene.img_a.boxes]
    # Exact duplicates and boxes whose bounding boxes only touch.
    orthogonal += [orthogonal[0], _box(0, 0, 10, 10), _box(10, 0, 20, 10)]
    adjusted, rectified = jittered(1.0), jittered(6.0)
    rectified_adjusted = jittered(3.0)
    streams = {"O": orthogonal, "OA": adjusted, "R": rectified, "RA": rectified_adjusted,
               "O+R": orthogonal + rectified, "(O+R)A": adjusted + rectified_adjusted}
    for mode in MODES:
        got = merge_detections(orthogonal, adjusted, rectified, rectified_adjusted, mode)
        want = _reference_merge(streams[mode])
        assert [id(q) for q in got] == [id(q) for q in want]
        if mode in ("O", "O+R", "(O+R)A"):
            assert len(got) < len(streams[mode])
