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

from objguide import geom, objmatch, synth
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
from objguide.objmatch import (
    EPS_IOU,
    GEM_P,
    K_CANDIDATES,
    feature_table,
    gem_pool,
    greedy_assign,
    greedy_match,
)
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


def reference_greedy_match(boxes1, boxes2, feats1, feats2):
    """Unbounded greedy grouping with all-pairs IoU scoring."""
    ref = feats1 or feats2
    dim = len(ref[0].desc) if ref else 0
    d1 = _reference_descriptors(boxes1, feats1, dim, GEM_P)
    d2 = _reference_descriptors(boxes2, feats2, dim, GEM_P)
    corners2 = np.array([q.corners for q in boxes2]).reshape(-1, 4, 2)
    rem1, rem2 = list(range(len(boxes1))), list(range(len(boxes2)))
    groups = []
    while rem1 and rem2:
        best = None
        for i in rem1:
            sims = d2[rem2] @ d1[i]
            for lj in np.argsort(-sims, kind="stable")[:K_CANDIDATES]:
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
                local = _reference_pairs(iou, EPS_IOU)
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


def _assert_same_groups(boxes1, boxes2, feats1, feats2):
    # A featureless image's table takes the other image's dimension, as in
    # match_pair.
    ref = feats1 or feats2
    dim = len(ref[0].desc) if ref else 0
    tables = feature_table(feats1, dim), feature_table(feats2, dim)
    got = greedy_match(corner_table(boxes1), corner_table(boxes2), *tables)
    want = reference_greedy_match(boxes1, boxes2, feats1, feats2)
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
    scene = generate(synth.preset(preset, 0))
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


def test_blocked_support_matches_reference(monkeypatch):
    # Boxes 0-1 form a pair that one translation registers (support 2),
    # boxes 2-5 a row of four that another registers (support 4).  With
    # blocks of 17 cells, the row's hypothesis wins in the second block of
    # the first round and raises the floor above the bound of a later member
    # of that block, whose IoUs were computed but are never scored.
    b1 = [_box(0, 400, 40, 450), _box(300, 400, 340, 450)]
    b1 += [_box(100 * k, 0, 100 * k + 40, 50) for k in range(4)]
    b2 = [_box(20, 420, 60, 470), _box(320, 420, 360, 470)]
    b2 += [_box(100 * k + 30, 10, 100 * k + 70, 60) for k in range(4)]
    log = []  # per round a list of blocks: [cells computed, [cells, pairs] per scored member]
    round_cells, iou, support = objmatch._round_cells, objmatch.quad_iou, objmatch._support

    def logged_round(*args):
        log.append([])
        return round_cells(*args)

    def logged_iou(a, b):
        log[-1].append([len(a), []])
        return iou(a, b)

    def logged_support(a, b, ious, eps):
        out = support(a, b, ious, eps)
        log[-1][-1][1].append((len(a), out[0]))
        return out

    monkeypatch.setattr(objmatch, "SUPPORT_CELLS", 17)
    monkeypatch.setattr(objmatch, "_round_cells", logged_round)
    monkeypatch.setattr(objmatch, "quad_iou", logged_iou)
    monkeypatch.setattr(objmatch, "_support", logged_support)
    groups = _assert_same_groups(b1, b2, [], [])
    assert [g.pairs for g in groups] == [[(2, 2), (3, 3), (4, 4), (5, 5)], [(0, 0), (1, 1)]]
    first = log[0]
    win = min(k for k, (_, scored) in enumerate(first)
              if any(pairs == groups[0].pairs for _, pairs in scored))
    assert win >= 1
    assert sum(n for n, _ in first[win][1]) < first[win][0]


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


def test_images_the_edge_crosses_cannot_decide_match_reference(monkeypatch):
    # The hypotheses of boxes 0-2 send the line x = 512 to infinity, and
    # box 3 straddles it.  A hypothesis onto the 1e-5 px thin box 1 of
    # image 2 maps the boxes to slivers.  Neither kind of image is decided
    # by its edge crosses, so both take canonical_quad_order's angle sort.
    h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0 / 512, 0, 1.0]]))
    b1 = [_box(0, 0, 40, 50), _box(60, 0, 100, 50), _box(100, 100, 140, 150),
          _box(500, 0, 540, 50), _box(200, 300, 240, 350)]
    b2 = [QuadBox(canonical_quad_order(h.map_points(q.corners))) for q in b1[:3]]
    b2.insert(1, _box(300, 400, 340, 400 + 1e-5))
    undecided = []
    sort = geom.canonical_quad_order
    with monkeypatch.context() as patch:
        patch.setattr(geom, "canonical_quad_order", lambda c: undecided.append(c) or sort(c))
        tables = feature_table([], 0), feature_table([], 0)
        greedy_match(corner_table(b1), corner_table(b2), *tables)
    rows = np.concatenate(undecided)
    extent = rows.max(axis=1) - rows.min(axis=1)
    assert (extent[:, 0] > 1e4).any()  # box 3's corners run off both ways
    assert (extent.min(axis=1) < 1e-3).any()
    groups = _assert_same_groups(b1, b2, [], [])
    assert groups[0].pairs == [(0, 0), (1, 2), (2, 3)]


def test_featureless_image_matches_reference():
    scene = generate(synth.preset("two-facade", 1))
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
    scene = generate(synth.preset("two-facade", 2))

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
