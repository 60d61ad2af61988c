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
    _at_infinity,
    dlt_homography_h,
    project_quads,
    quad_iou,
)
from .objmatch import (
    Feature,
    MatchParams,
    ObjectGroup,
    _feature_table,
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
    VanishingPoint,
    VpParams,
    best_by_orientation,
    image_vps,
)


SUPPORT_MARGIN = 0.5  # dilation of the supporting quads for guided matching
SIM_THRESH = 0.0  # lowest descriptor cosine a guided candidate may have
QUERY_CELLS = 1 << 16  # distance cells per block of the guided radius query


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
    boxes1: list[QuadBox],
    boxes2: list[QuadBox],
    vps1: list[VanishingPoint],
    vps2: list[VanishingPoint],
    params: MatchParams,
) -> Homography:
    """Re-estimate the group homography from all supporting corners.

    The best-supported horizontal and vertical vanishing points of the two
    images are appended as weighted correspondences, enforcing consistency
    of the vanishing geometry.  Falls back to the initial hypothesis (with
    g.refined left False) when the system is degenerate or the refit breaks
    the group's IoU support.
    """
    src = np.vstack([boxes1[i].corners for i, _ in g.pairs])
    dst = np.vstack([boxes2[j].corners for _, j in g.pairs])
    src_h = np.column_stack([src, np.ones(len(src))])
    dst_h = np.column_stack([dst, np.ones(len(dst))])
    weights = [1.0] * len(src)

    omega = params.vp_weight if params.vp_weight is not None else float(len(g.pairs))
    for orientation in (HORIZONTAL, VERTICAL):
        try:
            v1 = best_by_orientation(vps1, orientation).point
            v2 = best_by_orientation(vps2, orientation).point
        except MissingVanishingPointError:
            continue
        src_h = np.vstack([src_h, v1])
        dst_h = np.vstack([dst_h, v2])
        weights.append(omega)

    def corner_rms(h: Homography) -> float:
        try:
            proj = h.map_points(src)
        except DegenerateInputError:
            return np.inf
        return float(np.sqrt(np.mean(np.sum((proj - dst) ** 2, axis=1))))

    try:
        refined = dlt_homography_h(src_h, dst_h, np.array(weights))
    except (EstimationError, DegenerateInputError):
        g.refined = False
        return g.H

    # Accept only if the refit does not hurt the observed corners nor the
    # IoU support that defined the group.
    if corner_rms(refined) > corner_rms(g.H) + 1e-9:
        g.refined = False
        return g.H
    valid, proj = project_quads(refined, np.array([boxes1[i].corners for i, _ in g.pairs]))
    corners2 = np.array([boxes2[j].corners for _, j in g.pairs])
    if not valid.all() or np.any(quad_iou(proj, corners2) < params.eps_iou):
        g.refined = False
        return g.H

    g.H = refined
    g.refined = True
    return refined


def support_region(g: ObjectGroup, boxes: list[QuadBox], points: np.ndarray) -> np.ndarray:
    """Mask of the points (N, 2) inside any of the group's dilated supporting quads."""
    inside = np.zeros(len(points), dtype=bool)
    for i, _ in g.pairs:
        inside |= boxes[i].dilated(SUPPORT_MARGIN).contains_points(points)
    return inside


def guided_match(
    feats1: list[Feature],
    feats2: list[Feature],
    g: ObjectGroup,
    boxes1: list[QuadBox],
    params: MatchParams,
    group_id: int = 0,
    claimed1: set[int] | None = None,
    claimed2: set[int] | None = None,
) -> list[Match]:
    """Match features inside the group's support through its homography.

    Candidates are the image-2 features within r_search of the projection
    whose descriptor cosine is at least SIM_THRESH.  They are assigned one
    to one in descending similarity (objmatch.greedy_assign); an exact tie
    goes to the lower (i, j).
    """
    claimed1 = claimed1 or set()
    claimed2 = claimed2 or set()
    pool1 = [f for f in feats1 if f.id not in claimed1]
    pool2 = [f for f in feats2 if f.id not in claimed2]
    if not pool1 or not pool2:
        return []
    ids1, pos1, desc1 = _feature_table(pool1)
    ids2, pos2, desc2 = _feature_table(pool2)
    ph = g.H._map_h(pos1)
    usable = np.flatnonzero(support_region(g, boxes1, pos1) & ~_at_infinity(ph))
    if not usable.size:
        return []
    proj = ph[usable, :2] / ph[usable, 2:]

    # Radius query and similarities a block of projections at a time, so the
    # distance temporaries stay small on large pools.
    step = max(1, QUERY_CELLS // len(pool2))
    edges = []
    for start in range(0, len(usable), step):
        rows = usable[start : start + step]
        dx = pos2[:, 0] - proj[start : start + step, :1]
        dy = pos2[:, 1] - proj[start : start + step, 1:]
        k, l = np.nonzero(np.sqrt(dx * dx + dy * dy) <= params.r_search)
        sim = np.vecdot(desc1[rows[k]], desc2[l])
        ok = sim >= SIM_THRESH
        edges.append((ids1[rows[k[ok]]], ids2[l[ok]], sim[ok]))
    i, j, sim = (np.concatenate(col) for col in zip(*edges))

    kept = greedy_assign(sim, i, j)
    return [
        Match(i=a, j=b, sim=s, group_id=group_id)
        for a, b, s in zip(i[kept].tolist(), j[kept].tolist(), sim[kept].tolist())
    ]


def additional_matches(
    feats1: list[Feature],
    feats2: list[Feature],
    already: MatchSet,
    ratio: float,
) -> list[Match]:
    """Mutual-NN + ratio-test matching over the still-unmatched features.

    Similarity ties go to the lower id.  The ratio test compares the best
    with the second-best similarity and needs two image-2 features.
    """
    used1 = {m.i for m in already.matches}
    used2 = {m.j for m in already.matches}
    pool1 = [f for f in sorted(feats1, key=lambda f: f.id) if f.id not in used1]
    pool2 = [f for f in sorted(feats2, key=lambda f: f.id) if f.id not in used2]
    if not pool1 or not pool2:
        return []
    ids1, _, d1 = _feature_table(pool1)
    ids2, _, d2 = _feature_table(pool2)
    sims = d1 @ d2.T

    best1 = np.argmax(sims, axis=1)  # for each i, best j
    best2 = np.argmax(sims, axis=0)  # for each j, best i
    rows = np.flatnonzero(best2[best1] == np.arange(len(pool1)))
    cols = best1[rows]
    s1 = sims[rows, cols]
    if len(pool2) > 1:
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


def _detection_streams(img: ImageInputs, vps: list[VanishingPoint], vp_params: VpParams):
    """Build the O / OA / R / RA quad streams for one image."""
    orthogonal = [QuadBox.from_detbox(b) for b in img.boxes]

    # A box stays orthogonal when the image lacks a vanishing point of either
    # orientation or when its adjusted quad is degenerate.
    adjusted = orthogonal
    with suppress(MissingVanishingPointError):
        picks = vote_box_vps(img.boxes, img.segments, vps, vp_params)
        quads = adjust_box(
            img.boxes,
            np.array([vp_h.point for vp_h, _ in picks]),
            np.array([vp_v.point for _, vp_v in picks]),
        )
        adjusted = [o if q is None else q for o, q in zip(orthogonal, quads)]

    rectified: list[QuadBox] = []
    if img.rect_boxes:
        # Facades are numbered left to right by their column interval.
        rectifiers, _intervals = build_plane_rectifiers(
            img.segments, img.width, img.height, vp_params, vps=vps
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
    params: MatchParams | None = None,
    vp_params: VpParams | None = None,
    mode: str = "O",
) -> tuple[MatchSet, dict]:
    """Run the full pipeline on one image pair.

    Returns the fused MatchSet plus a per-stage count report.  Deterministic
    given vp_params.rng_seed.
    """
    params = params or MatchParams()
    vp_params = vp_params or VpParams()

    report: dict = {"mode": mode}
    boxes = []
    vps_all = []
    for tag, img in (("1", img1), ("2", img2)):
        vps = image_vps(img.segments, img.width, img.height, vp_params)
        vps_all.append(vps)
        streams = _detection_streams(img, vps, vp_params)
        merged = merge_detections(*streams, mode)
        boxes.append(merged)
        report[f"vps_{tag}"] = len(vps)
        report[f"boxes_{tag}"] = len(merged)

    boxes1, boxes2 = boxes
    vps1, vps2 = vps_all

    groups = greedy_match(boxes1, boxes2, img1.features, img2.features, params)
    for g in groups:
        refine_homography(g, boxes1, boxes2, vps1, vps2, params)
    report["groups"] = len(groups)

    matches: list[Match] = []
    claimed1: set[int] = set()
    claimed2: set[int] = set()
    for gid, g in enumerate(groups):
        got = guided_match(
            img1.features, img2.features, g, boxes1, params, gid, claimed1, claimed2
        )
        matches.extend(got)
        claimed1.update(m.i for m in got)
        claimed2.update(m.j for m in got)
    report["guided_matches"] = len(matches)

    partial = MatchSet(matches=matches, groups=groups)
    extra = additional_matches(img1.features, img2.features, partial, params.ratio)
    report["additional_matches"] = len(extra)

    all_matches = sorted(matches + extra, key=lambda m: (m.i, m.j))
    return MatchSet(matches=all_matches, groups=groups), report
