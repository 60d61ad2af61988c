"""Homography refinement, geometry-guided feature matching, and fusion.

Each object group's homography is re-estimated from all supporting box
corners with vanishing-point consistency rows, then used to project
features and restrict their match candidates to a search radius.  The
candidates are assigned one to one in descending similarity, an exact tie
going to the lower (i, j).  Features left unmatched afterwards go through
plain mutual-NN matching with a ratio test.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .geom import (
    DegenerateInputError,
    DetBox,
    EstimationError,
    Homography,
    LineSegment,
    QuadBox,
    canonical_quad_order,
    dlt_homography,
    points_in_quads,
    project_points,
    project_quads,
    quad_iou,
)
from .objmatch import (
    EPS_IOU,
    DimensionMismatchError,
    Feature,
    FeatureTable,
    ObjectGroup,
    feature_table,
    greedy_assign,
    greedy_match,
)
from .boxes import adjust_box, vote_box_vps
from .rectify import (
    BackprojectionError,
    backproject_quad,
    build_plane_rectifiers,
    merge_detections,
)
from .vanishing import (
    HORIZONTAL,
    VERTICAL,
    MissingVanishingPointError,
    SegmentTable,
    VanishingPoint,
    VpParams,
    best_by_orientation,
    image_vps,
    segment_arrays,
)


SUPPORT_MARGIN = 0.5  # dilation of the supporting quads for guided matching
SIM_THRESH = 0.0  # lowest descriptor cosine a guided candidate may have
QUERY_CELLS = 1 << 16  # distance cells per block of the guided radius query
R_SEARCH = 20.0  # guided search radius around a projected feature, in pixels
RATIO = 0.8  # ratio test of the fallback matching


@dataclass(frozen=True)
class Match:
    i: int  # feature id in image 1
    j: int  # feature id in image 2
    sim: float
    group_id: int  # -1 for additional (descriptor-only) matches


@dataclass
class MatchSet:
    matches: list[Match]
    groups: list[ObjectGroup]


def refine_homography(
    g: ObjectGroup,
    corners1: np.ndarray,
    corners2: np.ndarray,
    vps1: list[VanishingPoint],
    vps2: list[VanishingPoint],
) -> Homography:
    """Re-estimate the group homography from all supporting corners.

    corners1 (N1, 4, 2) and corners2 (N2, 4, 2) are the images' box corners,
    which g.pairs index.  The best-supported horizontal and vertical
    vanishing points of the two images are appended as correspondences
    weighted by the group's pair count, for consistent vanishing geometry.
    Falls back to the initial hypothesis (with g.refined left False) when
    the system is degenerate or the refit breaks the group's IoU support.
    """
    i, j = np.array(g.pairs, dtype=int).reshape(-1, 2).T
    corners1, corners2 = corners1[i], corners2[j]
    src, dst = corners1.reshape(-1, 2), corners2.reshape(-1, 2)
    src_h = np.column_stack([src, np.ones(len(src))])
    dst_h = np.column_stack([dst, np.ones(len(dst))])
    weights = [1.0] * len(src)

    for orientation in (HORIZONTAL, VERTICAL):
        try:
            v1 = best_by_orientation(vps1, orientation).point
            v2 = best_by_orientation(vps2, orientation).point
        except MissingVanishingPointError:
            continue
        src_h = np.vstack([src_h, v1])
        dst_h = np.vstack([dst_h, v2])
        weights.append(float(len(g.pairs)))

    def corner_rms(h: Homography) -> float:
        try:
            proj = h.map_points(src)
        except DegenerateInputError:
            return np.inf
        return float(np.sqrt(np.mean(np.sum((proj - dst) ** 2, axis=1))))

    g.refined = False
    try:
        refined = dlt_homography(src_h, dst_h, np.array(weights))
    except (EstimationError, DegenerateInputError):
        return g.H

    # Accept only if the refit does not hurt the observed corners nor the
    # IoU support that defined the group.
    if corner_rms(refined) > corner_rms(g.H) + 1e-9:
        return g.H
    [valid], [proj] = project_quads(refined.m[None], corners1)
    if not valid.all() or np.any(quad_iou(canonical_quad_order(proj), corners2) < EPS_IOU):
        return g.H

    g.H = refined
    g.refined = True
    return refined


def support_region(g: ObjectGroup, corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask of the points (N, 2) inside any of the group's supporting quads,
    each scaled about its centroid by 1 + SUPPORT_MARGIN.  corners (N1, 4, 2)
    are the image-1 box corners, which g.pairs index."""
    corners = corners[[i for i, _ in g.pairs]]
    c = corners.mean(axis=1, keepdims=True)
    return points_in_quads(c + (1.0 + SUPPORT_MARGIN) * (corners - c), points).any(axis=0)


def guided_match(
    table1: FeatureTable,
    table2: FeatureTable,
    g: ObjectGroup,
    corners1: np.ndarray,
    r_search: float,
    group_id: int,
    free1: np.ndarray,
    free2: np.ndarray,
) -> list[Match]:
    """Match features inside the group's support through its homography.

    The pool is the rows of each feature table still set in its free mask;
    the rows matched here are cleared.
    Candidates are the image-2 features within r_search of the projection
    whose descriptor cosine is at least SIM_THRESH.  They are assigned one
    to one in descending similarity (objmatch.greedy_assign); an exact tie
    goes to the lower (i, j).
    """
    ids1, pos1, desc1 = table1
    ids2, pos2, desc2 = table2
    rows1, rows2 = np.flatnonzero(free1), np.flatnonzero(free2)
    if not rows1.size or not rows2.size:
        return []
    pool1 = pos1[rows1]
    proj, finite = project_points(g.H.m, pool1)
    keep = support_region(g, corners1, pool1) & finite
    usable = rows1[keep]
    if not usable.size:
        return []
    proj = proj[keep]
    pool2 = pos2[rows2]

    # Radius query and similarities a block of projections at a time, so the
    # distance temporaries stay small on large pools.  Edges join table
    # rows; rows are in id order, so the assignment's tie-break is by id.
    step = max(1, QUERY_CELLS // len(rows2))
    edges = []
    for start in range(0, len(usable), step):
        rows = usable[start : start + step]
        dx = pool2[:, 0] - proj[start : start + step, :1]
        dy = pool2[:, 1] - proj[start : start + step, 1:]
        k, l = np.nonzero(np.sqrt(dx * dx + dy * dy) <= r_search)
        sim = np.vecdot(desc1[rows[k]], desc2[rows2[l]])
        ok = sim >= SIM_THRESH
        edges.append((rows[k[ok]], rows2[l[ok]], sim[ok]))
    i, j, sim = (np.concatenate(col) for col in zip(*edges))

    kept = greedy_assign(sim, i, j)
    i, j = i[kept], j[kept]
    free1[i] = False
    free2[j] = False
    return [
        Match(i=a, j=b, sim=s, group_id=group_id)
        for a, b, s in zip(ids1[i].tolist(), ids2[j].tolist(), sim[kept].tolist())
    ]


def additional_matches(table1: FeatureTable, table2: FeatureTable, ratio: float) -> list[Match]:
    """Mutual-NN + ratio-test matching between two feature tables.

    Similarity ties go to the lower row, which is the lower id.  The ratio
    test compares the best with the second-best similarity and needs two
    image-2 features.
    """
    ids1, _, d1 = table1
    ids2, _, d2 = table2
    if not len(ids1) or not len(ids2):
        return []
    sims = d1 @ d2.T

    best1 = np.argmax(sims, axis=1)  # for each i, best j
    best2 = np.argmax(sims, axis=0)  # for each j, best i
    rows = np.flatnonzero(best2[best1] == np.arange(len(ids1)))
    cols = best1[rows]
    s1 = sims[rows, cols]
    if len(ids2) > 1:
        top = sims[rows]
        top.partition(-2, axis=1)
        # Descriptor distances of the best and second-best unit vectors.
        dist1, dist2 = np.sqrt(np.maximum(2.0 - 2.0 * np.stack([s1, top[:, -2]]), 0.0))
        ok = dist1 < ratio * dist2
        rows, cols, s1 = rows[ok], cols[ok], s1[ok]
    return [
        Match(i=a, j=b, sim=s, group_id=-1)
        for a, b, s in zip(ids1[rows].tolist(), ids2[cols].tolist(), s1.tolist())
    ]


@dataclass
class ImageInputs:
    """Everything the pipeline ingests for one image."""

    width: int
    height: int
    segments: list[LineSegment]
    boxes: list[DetBox]
    features: list[Feature]
    # Simulated detections in rectified frames: (plane index, box in that frame).
    rect_boxes: list[tuple[int, DetBox]] = field(default_factory=list)


def _detection_streams(
    img: ImageInputs, segs: SegmentTable, vps: list[VanishingPoint], vp_params: VpParams
):
    """Build the O / OA / R / RA quad streams for one image from its
    segment table and vanishing points."""
    orthogonal = [QuadBox.from_detbox(b) for b in img.boxes]

    # A box stays orthogonal when the image lacks a vanishing point of either
    # orientation or when its adjusted quad is degenerate.
    adjusted = orthogonal
    with suppress(MissingVanishingPointError):
        quads = adjust_box(img.boxes, *vote_box_vps(img.boxes, segs, vps, vp_params))
        adjusted = [o if q is None else q for o, q in zip(orthogonal, quads)]

    rectified: list[QuadBox] = []
    if img.rect_boxes:
        # Facades are numbered left to right by their column interval.
        rectifiers, _intervals = build_plane_rectifiers(
            segs, vps, img.width, img.height, vp_params
        )
        for plane, box in img.rect_boxes:
            if not (0 <= plane < len(rectifiers)) or rectifiers[plane] is None:
                continue
            with suppress(BackprojectionError):
                rectified.append(backproject_quad(box, rectifiers[plane]))
    # Detections in a rectified frame are already aligned with the plane's
    # vanishing directions, so adjustment there is the identity: the
    # rectified stream doubles as the adjusted rectified stream.
    return orthogonal, adjusted, rectified, rectified


def match_pair(
    img1: ImageInputs,
    img2: ImageInputs,
    vp_params: VpParams | None = None,
    mode: str = "O",
) -> tuple[MatchSet, dict]:
    """Run the full pipeline on one image pair.

    Returns the fused MatchSet plus a per-stage count report.  Deterministic
    given vp_params.rng_seed.  Raises DimensionMismatchError, before any
    per-image work, when the two images' descriptors differ in length.
    """
    vp_params = vp_params or VpParams()

    # One feature table per image serves every matching stage.  A featureless
    # image takes the other's descriptor dimension: its boxes pool to zeros.
    dims = [len(img.features[0].desc) for img in (img1, img2) if img.features]
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"descriptor dims differ: {dims[0]} vs {dims[1]}")
    dim = dims[0] if dims else 0
    report: dict = {"mode": mode}
    per_image = []
    for tag, img in (("1", img1), ("2", img2)):
        # One segment table per image serves every vanishing-point stage.
        segs = segment_arrays(img.segments)
        vps = image_vps(segs, img.width, img.height, vp_params)
        merged = merge_detections(*_detection_streams(img, segs, vps, vp_params), mode)
        # One corner table per image serves every box stage after the merge.
        corners = np.array([q.corners for q in merged]).reshape(-1, 4, 2)
        per_image.append((vps, corners, feature_table(img.features, dim)))
        report[f"vps_{tag}"] = len(vps)
        report[f"boxes_{tag}"] = len(corners)
    (vps1, corners1, table1), (vps2, corners2, table2) = per_image

    groups = greedy_match(corners1, corners2, table1, table2)
    for g in groups:
        refine_homography(g, corners1, corners2, vps1, vps2)
    report["groups"] = len(groups)

    matches: list[Match] = []
    free1 = np.ones(len(table1[0]), dtype=bool)
    free2 = np.ones(len(table2[0]), dtype=bool)
    for gid, g in enumerate(groups):
        matches += guided_match(table1, table2, g, corners1, R_SEARCH, gid, free1, free2)
    report["guided_matches"] = len(matches)

    # The fallback sees the leftover rows only; the full tables are freed first.
    del per_image
    table1 = tuple(col[free1] for col in table1)
    table2 = tuple(col[free2] for col in table2)
    extra = additional_matches(table1, table2, RATIO)
    report["additional_matches"] = len(extra)

    all_matches = sorted(matches + extra, key=lambda m: (m.i, m.j))
    return MatchSet(matches=all_matches, groups=groups), report
