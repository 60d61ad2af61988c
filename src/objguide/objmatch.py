"""Greedy object-box matching through homography hypotheses.

Candidate box pairs (pruned by pooled-descriptor similarity) each induce a
homography from their four corner correspondences.  The hypothesis that
registers the most boxes across the images wins, its boxes are removed,
and the search repeats until no hypothesis is supported by two pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    Homography,
    bbox_overlap_cells,
    canonical_quad_order,
    dlt_homographies,
    points_in_quads,
    project_quads,
    quad_bounds,
    quad_iou,
)

K_CANDIDATES = 5  # most similar image-2 boxes each image-1 box visits per round
EPS_IOU = 0.5  # IoU at which a box pair supports a homography
GEM_P = 3.0  # GeM pooling exponent of the box descriptors
SUPPORT_CELLS = 1 << 10  # overlap cells per block of support IoUs in a grouping round


class NoDescriptorError(ValueError):
    """GeM pooling was asked to pool an empty descriptor set."""


class DimensionMismatchError(ValueError):
    """Feature descriptors that are compared or stacked differ in length."""


@dataclass(frozen=True)
class Feature:
    """Local feature: keypoint position plus unit-norm descriptor."""

    id: int
    pos: np.ndarray
    desc: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.pos, dtype=float).reshape(2)
        desc = np.asarray(self.desc, dtype=float)
        n = np.linalg.norm(desc)  # not finite when any component is not
        if not (math.isfinite(pos[0]) and math.isfinite(pos[1]) and math.isfinite(n)):
            raise ValueError("non-finite feature position or descriptor")
        if abs(n - 1.0) > 1e-6:
            raise ValueError("feature descriptor must be unit norm")
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "desc", desc)


@dataclass
class ObjectGroup:
    """Box correspondences between two images consistent with one homography."""

    H: Homography
    pairs: list[tuple[int, int]]
    refined: bool = False


def gem_pool(descs: np.ndarray, p: float) -> np.ndarray:
    """Generalized-mean pooling of unit descriptors (N, D), re-normalized.

    GeM is defined on non-negative activations; signed components are pooled
    on their magnitudes and given the sign of the componentwise mean.
    """
    descs = np.asarray(descs, dtype=float)
    if len(descs) == 0:
        raise NoDescriptorError("cannot pool an empty descriptor set")
    pooled = np.mean(np.abs(descs) ** p, axis=0) ** (1.0 / p)
    signs = np.sign(np.mean(descs, axis=0))
    signs[signs == 0] = 1.0
    vec = signs * pooled
    n = np.linalg.norm(vec)
    if n < 1e-12:
        raise NoDescriptorError(f"pooled descriptor is zero: gem_p {p} underflows")
    return vec / n


def box_descriptor(corners: np.ndarray, pos: np.ndarray, desc: np.ndarray, p: float) -> np.ndarray:
    """Pooled descriptors (N, D) of the features inside each quad (N, 4, 2).

    pos (F, 2) and desc (F, D) are one image's feature positions and
    descriptors.  A box containing no features gets the zero sentinel of
    length D, which has cosine similarity 0 to everything.
    """
    inside = points_in_quads(corners, pos)
    out = np.zeros((len(inside), desc.shape[1]))
    for k in np.flatnonzero(inside.any(axis=1)):
        out[k] = gem_pool(desc[inside[k]], p)
    return out


FeatureTable = tuple[np.ndarray, np.ndarray, np.ndarray]


def feature_table(feats: list[Feature], dim: int = 0) -> FeatureTable:
    """Feature ids (F,), positions (F, 2) and descriptors (F, dim) of one image.

    Rows are in ascending id order, so row order is id order for every
    tie-break downstream.  dim is the descriptor length of an empty table.
    Raises ValueError on a repeated id and DimensionMismatchError on
    descriptors of different lengths.
    """
    if not feats:
        return np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros((0, dim))
    feats = sorted(feats, key=lambda f: f.id)
    ids = np.array([f.id for f in feats])
    if np.any(ids[1:] == ids[:-1]):
        raise ValueError("repeated feature id")
    lengths = {len(f.desc) for f in feats}
    if len(lengths) > 1:
        raise DimensionMismatchError(f"descriptor dims differ: {sorted(lengths)}")
    return ids, np.array([f.pos for f in feats]), np.array([f.desc for f in feats])


def hypothesis(c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Homographies mapping each quad's corners onto the other's, for stacks
    of quads (K, 4, 2): dlt_homographies' matrices, unit forms and mask."""
    return dlt_homographies(c1, c2)


def greedy_assign(score: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Greedy one-to-one assignment of the edges (a[e], b[e]) scored score[e].

    One pass in (-score, a, b) order keeps an edge when both of its ends are
    still free, so an exact tie goes to the lower (a, b).  Returns the kept
    edge indices by ascending a.  Without ties this is the unique stable
    matching, the one deferred acceptance also finds.
    """
    order = np.lexsort((b, a, -score))
    used_a: set[int] = set()
    used_b: set[int] = set()
    kept = []
    for e, i, j in zip(order.tolist(), a[order].tolist(), b[order].tolist()):
        if i not in used_a and j not in used_b:
            used_a.add(i)
            used_b.add(j)
            kept.append(e)
    kept = np.array(kept, dtype=np.intp)
    return kept[np.argsort(a[kept])]


def _quad_areas(corners: np.ndarray) -> np.ndarray:
    """Areas of convex quads (N, 4, 2), half the cross of their diagonals."""
    d = corners[:, 2:] - corners[:, :2]
    return 0.5 * np.abs(d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0])


def _round_cells(
    ms: np.ndarray, corners1: np.ndarray, corners2: np.ndarray, eps_iou: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """What a grouping round can score without IoU.

    Projects the image-1 quads (N1, 4, 2) under each hypothesis matrix
    (K, 3, 3) and keeps the cells (k, a, b), projection a under hypothesis k
    against image-2 quad b (N2, 4, 2), whose IoU can reach eps_iou: the
    projection is finite and strictly convex, the bounding boxes overlap,
    and IoU's two upper bounds, bounding-box intersection over the larger
    area and smaller area over larger, reach eps_iou up to rounding.
    Returns the projections (K, N1, 4, 2) in source corner order, the cells
    as index arrays in (k, a, b) order, and each hypothesis's support bound
    (K,): pairing is one-to-one, so the support is at most the smaller of
    the numbers of distinct a and distinct b among its cells.
    """
    valid, proj = project_quads(ms, corners1)
    quads = proj.reshape(-1, 4, 2)
    lo1, hi1 = quad_bounds(quads)
    # An image outside the mask gets an empty box, which overlaps nothing.
    invalid = ~valid.ravel()
    lo1[invalid], hi1[invalid] = np.inf, -np.inf
    lo2, hi2 = quad_bounds(corners2)
    r, b = bbox_overlap_cells(lo1, hi1, lo2, hi2)
    k, a = np.divmod(r, len(corners1))
    area1, area2 = _quad_areas(quads[r]), _quad_areas(corners2)[b]
    lo1, hi1, lo2, hi2 = lo1[r], hi1[r], lo2[b], hi2[b]
    side = np.minimum(hi1, hi2) - np.maximum(lo1, lo2)
    reach = np.minimum(side[:, 0] * side[:, 1], np.minimum(area1, area2))
    # Areas here and in quad_iou are off by ~1e-14 of the squared coordinate
    # scale at most, so the slack keeps every cell it scores >= eps_iou.
    mag = np.maximum(np.maximum(-lo1, hi1), np.maximum(-lo2, hi2))
    slack = 1e-9 * np.maximum(mag[:, 0], mag[:, 1]) ** 2
    keep = eps_iou * np.maximum(area1, area2) <= reach + slack
    k, a, b = k[keep], a[keep], b[keep]
    seen1 = np.zeros((len(ms), len(corners1)), dtype=bool)
    seen2 = np.zeros((len(ms), len(corners2)), dtype=bool)
    seen1[k, a] = True
    seen2[k, b] = True
    return proj, (k, a, b), np.minimum(seen1.sum(axis=1), seen2.sum(axis=1))


def _support(
    a: np.ndarray, b: np.ndarray, iou: np.ndarray, eps_iou: float
) -> tuple[list[tuple[int, int]], float]:
    """Greedy one-to-one support of one hypothesis and its summed IoU.

    iou holds the IoUs of the hypothesis's overlap cells (a[e], b[e]) from
    _round_cells.  Appearance is deliberately ignored here; geometry alone
    decides.
    """
    edge = np.flatnonzero(iou >= eps_iou)
    kept = edge[greedy_assign(iou[edge], a[edge], b[edge])]
    pairs = list(zip(a[kept].tolist(), b[kept].tolist()))
    # Summed one float64 at a time in pair order, as the tie-break expects.
    return pairs, float(sum(iou[kept]))


def _best_support(
    proj: np.ndarray,
    cells: tuple[np.ndarray, np.ndarray, np.ndarray],
    bound: np.ndarray,
    corners2: np.ndarray,
    eps_iou: float,
) -> tuple[int, list[tuple[int, int]]] | None:
    """The best-supported hypothesis of a round and its pairs, or None.

    proj, cells and bound are _round_cells' arrays.  Hypotheses are visited
    in order, and one whose bound is below the best support so far is
    skipped.  Ties are resolved by larger summed IoU, then by the
    lexicographically smaller pair list.  The IoUs come in blocks of about
    SUPPORT_CELLS cells, one quad_iou call per block, for the hypotheses
    whose bound reaches the floor at the start of the block.  IoUs do not
    depend on the stacking, so neither does the result.
    """
    k, a, b = cells
    size = np.bincount(k, minlength=len(bound))
    start = np.cumsum(size) - size
    todo = np.flatnonzero(bound >= 2)
    best, floor = None, 2  # (key, k, pairs) of the best so far, and its count
    while True:
        # A hypothesis that can only tie the best count is still scored:
        # the summed-IoU and pair-list tie-breaks need it.
        todo = todo[bound[todo] >= floor]
        if not len(todo):
            break
        stop = np.searchsorted(np.cumsum(size[todo]), SUPPORT_CELLS) + 1
        block, todo = todo[:stop], todo[stop:]
        # The members' runs of cells, one after the other.
        ends = np.cumsum(size[block])
        run = np.arange(ends[-1]) + np.repeat(start[block] - ends + size[block], size[block])
        ba, bb = a[run], b[run]
        iou = quad_iou(canonical_quad_order(proj[k[run], ba]), corners2[bb])
        ends = ends.tolist()
        for h, lo, hi in zip(block.tolist(), [0] + ends, ends):
            if bound[h] < floor:
                continue
            pairs, sum_iou = _support(ba[lo:hi], bb[lo:hi], iou[lo:hi], eps_iou)
            if len(pairs) < 2:
                continue
            key = (len(pairs), sum_iou, [(-i, -j) for i, j in pairs])
            if best is None or key > best[0]:
                best, floor = (key, h, pairs), len(pairs)
    return None if best is None else best[1:]


def greedy_match(
    corners1: np.ndarray,
    corners2: np.ndarray,
    table1: FeatureTable,
    table2: FeatureTable,
) -> list[ObjectGroup]:
    """Extract object groups by repeated best-supported homography hypotheses.

    corners1 (N1, 4, 2) and corners2 (N2, 4, 2) are the images' box
    corners; table1 and table2 are their feature_table rows, which give the
    boxes their pooled descriptors.  Fully deterministic: ties are resolved
    by larger summed IoU, then by the lexicographically smaller supporting
    pair list.
    """
    descs1 = box_descriptor(corners1, table1[1], table1[2], GEM_P)
    descs2 = box_descriptor(corners2, table2[1], table2[2], GEM_P)

    sims = descs1 @ descs2.T
    free1 = np.ones(len(corners1), dtype=bool)
    free2 = np.ones(len(corners2), dtype=bool)
    groups: list[ObjectGroup] = []

    while free1.any() and free2.any():
        rows1, rows2 = np.flatnonzero(free1), np.flatnonzero(free2)
        # Each free image-1 box visits its K_CANDIDATES most similar free image-2 boxes
        # in descending similarity; an exact tie goes to the lower index.
        order = np.argsort(-sims[np.ix_(rows1, rows2)], axis=1, kind="stable")
        cand = rows2[order[:, :K_CANDIDATES]]
        # One hypothesis call per round on its visits; the estimated ones keep
        # visiting order.  Most visits are first visits, so none are kept.
        m, unit, ok = hypothesis(corners1[np.repeat(rows1, cand.shape[1])], corners2[cand.ravel()])
        if not ok.any():
            break
        m, unit = m[ok], unit[ok]
        sub2 = corners2[rows2]
        proj, cells, bound = _round_cells(unit, corners1[rows1], sub2, EPS_IOU)
        won = _best_support(proj, cells, bound, sub2, EPS_IOU)
        if won is None:
            break
        k, pairs = won
        # rows1 and rows2 ascend, so the pair-list tie-break and the pair
        # order on local indices hold for the global ones.
        a, b = np.array(pairs).T
        a, b = rows1[a], rows2[b]
        free1[a] = False
        free2[b] = False
        pairs = list(zip(a.tolist(), b.tolist()))
        groups.append(ObjectGroup(H=Homography(m[k]), pairs=pairs))

    return groups
