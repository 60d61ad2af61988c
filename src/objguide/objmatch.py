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
    DegenerateInputError,
    EstimationError,
    Homography,
    bbox_overlaps,
    dlt_homography,
    points_in_quads,
    project_quads,
    quad_iou,
)


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


@dataclass(frozen=True)
class MatchParams:
    k_candidates: int = 5
    eps_iou: float = 0.5
    gem_p: float = 3.0
    r_search: float = 20.0
    ratio: float = 0.8
    vp_weight: float | None = None  # None: one corner-set per supporting pair

    def __post_init__(self):
        if self.k_candidates < 1:
            raise ValueError("k_candidates must be >= 1")
        if not (0.0 < self.eps_iou <= 1.0):
            raise ValueError("eps_iou must be in (0, 1]")
        # Each test is written so that nan fails it.
        if not self.gem_p >= 1.0:
            raise ValueError("gem_p must be >= 1")
        if not self.r_search >= 0.0:
            raise ValueError("r_search must be >= 0")
        if not (0.0 < self.ratio <= 1.0):
            raise ValueError("ratio must be in (0, 1]")
        if self.vp_weight is not None and not (0.0 <= self.vp_weight < np.inf):
            raise ValueError("vp_weight must be finite and >= 0")


@dataclass
class ObjectGroup:
    """Box correspondences between two images consistent with one homography."""

    H: Homography
    pairs: list[tuple[int, int]]
    refined: bool = False

    @property
    def support(self) -> int:
        return len(self.pairs)


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
        raise NoDescriptorError("pooled descriptor is zero")
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


def candidates(
    b: int, descs1: np.ndarray, descs2: np.ndarray, k: int
) -> list[int]:
    """Indices of the K most similar image-2 boxes, descending similarity.

    Ties break toward the lower index.
    """
    if len(descs2) == 0:
        return []
    sims = descs2 @ descs1[b]
    order = np.argsort(-sims, kind="stable")
    return [int(j) for j in order[:k]]


def hypothesis(c1: np.ndarray, c2: np.ndarray) -> Homography:
    """Homography mapping one quad's corners (4, 2) onto the other's."""
    return dlt_homography(c1, c2)


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


def _round_cells(
    ms: np.ndarray, corners1: np.ndarray, corners2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a grouping round can score without IoU.

    Projects the image-1 quads (N1, 4, 2) under each hypothesis matrix
    (K, 3, 3) and finds the image-2 quads (N2, 4, 2) whose bounding boxes
    each projection overlaps.  Returns the projections (K, N1, 4, 2), the
    overlap cells (K, N1, N2), none set for a projection that is not finite
    and strictly convex, and each hypothesis's support bound (K,).  Only a
    projected quad whose bounding box overlaps an image-2 box can reach
    IoU >= eps_iou > 0, and pairing is one-to-one, so the support is at
    most the smaller of the number of such quads and the number of image-2
    boxes they overlap.
    """
    valid, proj = project_quads(ms, corners1)
    cells = bbox_overlaps(
        proj.min(axis=2), proj.max(axis=2), corners2.min(axis=1), corners2.max(axis=1)
    )
    cells &= valid[..., None]
    bound = np.minimum(cells.any(axis=2).sum(axis=1), cells.any(axis=1).sum(axis=1))
    return proj, cells, bound


def _support(
    proj: np.ndarray, cells: np.ndarray, corners2: np.ndarray, eps_iou: float
) -> tuple[list[tuple[int, int]], float]:
    """Greedy one-to-one support of one hypothesis and its summed IoU.

    proj (N1, 4, 2) and cells (N1, N2) are the hypothesis's slices of
    _round_cells.  IoU is computed on the overlap cells only, in one
    stacked call.  Appearance is deliberately ignored here; geometry alone
    decides.
    """
    a, b = np.nonzero(cells)
    iou = quad_iou(proj[a], corners2[b])
    edge = np.flatnonzero(iou >= eps_iou)
    kept = edge[greedy_assign(iou[edge], a[edge], b[edge])]
    pairs = list(zip(a[kept].tolist(), b[kept].tolist()))
    # Summed one float64 at a time in pair order, as the tie-break expects.
    return pairs, float(sum(iou[kept]))


def greedy_match(
    corners1: np.ndarray,
    corners2: np.ndarray,
    table1: FeatureTable,
    table2: FeatureTable,
    params: MatchParams,
) -> list[ObjectGroup]:
    """Extract object groups by repeated best-supported homography hypotheses.

    corners1 (N1, 4, 2) and corners2 (N2, 4, 2) are the images' box
    corners; table1 and table2 are their feature_table rows, which give the
    boxes their pooled descriptors.  Fully deterministic: ties are resolved
    by larger summed IoU, then by the lexicographically smaller supporting
    pair list.
    """
    descs1 = box_descriptor(corners1, table1[1], table1[2], params.gem_p)
    descs2 = box_descriptor(corners2, table2[1], table2[2], params.gem_p)

    remaining1 = list(range(len(corners1)))
    remaining2 = list(range(len(corners2)))
    groups: list[ObjectGroup] = []
    # A hypothesis depends only on its two quads: each box pair's DLT, or
    # its failure (None), is computed once for all rounds.
    cache: dict[tuple[int, int], Homography | None] = {}

    while remaining1 and remaining2:
        sub_descs2 = descs2[remaining2]
        hyps = []  # in visiting order
        for i in remaining1:
            for lj in candidates(i, descs1, sub_descs2, params.k_candidates):
                j = remaining2[lj]
                if (i, j) not in cache:
                    try:
                        cache[i, j] = hypothesis(corners1[i], corners2[j])
                    except (EstimationError, DegenerateInputError):
                        cache[i, j] = None
                if cache[i, j] is not None:
                    hyps.append(cache[i, j])
        if not hyps:
            break
        sub2 = corners2[remaining2]
        proj, cells, bound = _round_cells(
            np.array([h.m for h in hyps]), corners1[remaining1], sub2
        )
        best = None  # ((count, sum_iou, pairs), pairs, H)
        for k, h in enumerate(hyps):
            # A hypothesis that can only tie the best count is still
            # scored: the summed-IoU and pair-list tie-breaks need it.
            floor = max(2, best[0][0]) if best else 2
            if bound[k] < floor:
                continue
            pairs, sum_iou = _support(proj[k], cells[k], sub2, params.eps_iou)
            if len(pairs) < 2:
                continue
            global_pairs = [(remaining1[a], remaining2[b]) for a, b in pairs]
            key = (len(pairs), sum_iou, [(-a, -b) for a, b in global_pairs])
            if best is None or key > best[0]:
                best = (key, global_pairs, h)
        if best is None:
            break
        _, global_pairs, h = best
        groups.append(ObjectGroup(H=h, pairs=sorted(global_pairs)))
        used1 = {a for a, _ in global_pairs}
        used2 = {b for _, b in global_pairs}
        remaining1 = [i for i in remaining1 if i not in used1]
        remaining2 = [j for j in remaining2 if j not in used2]

    return groups
