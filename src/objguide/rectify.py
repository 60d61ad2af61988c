"""Per-plane rectifying homographies and column-wise plane segmentation.

The rectifier is a composition S * B * P: a projective map P sending the
plane's vanishing line to infinity, a linear map B aligning the two
vanishing directions with the +x/+y axes, and an anisotropic scale plus
translation S fitted to keep segment endpoints close to where they were.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom import (
    DegenerateInputError,
    DetBox,
    Homography,
    QuadBox,
    bbox_overlap_cells,
    canonical_quad_order,
    join,
    project_points,
    quad_bounds,
    quad_iou,
)
from .vanishing import (
    HORIZONTAL,
    VERTICAL,
    SegmentTable,
    VanishingPoint,
    VpParams,
    _residual_matrix,
    best_by_orientation,
)


class RectifierDegenerateError(DegenerateInputError):
    """The vanishing line passes (nearly) through the image center."""


class BackprojectionError(DegenerateInputError):
    """A rectified box maps to no finite convex quad in the original image."""


@dataclass(frozen=True)
class Rectifier:
    H: Homography
    vp_h: np.ndarray
    vp_v: np.ndarray
    plane_id: int
    # H.inv, computed once: it backprojects every rectified-frame box.
    H_inv: Homography = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "H_inv", self.H.inv)


# A column is labeled when its best plane holds this fraction of the column's
# total vote mass and beats the second best by this ratio; votes are softmax
# confidences over residual angles at this temperature (degrees).
MAJORITY_THRESH = 0.5
RATIO_THRESH = 1.5
SOFTMAX_TEMP = 2.0


@dataclass(frozen=True)
class ColumnInterval:
    lo: int
    hi: int  # half-open [lo, hi)
    plane_id: int  # index into the horizontal vanishing point list

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError("empty column interval")


def build_rectifier(
    vp_h: np.ndarray,
    vp_v: np.ndarray,
    segs: SegmentTable,
    image_size: tuple[float, float],
    plane_id: int = 0,
) -> Rectifier:
    """Rectifying homography for the plane spanned by the two vanishing points.

    The anisotropic scale/translation is the closed-form per-axis least
    squares fit minimizing the squared displacement of the endpoints of the
    segment table's rows.
    """
    vp_h = np.asarray(vp_h, dtype=float)
    vp_v = np.asarray(vp_v, dtype=float)
    if not len(segs[0]):
        raise DegenerateInputError("no segments to fit the rectifier scale")

    width, height = image_size
    center = np.array([width / 2.0, height / 2.0, 1.0])
    l, coincident = join(vp_h, vp_v)
    if coincident:
        raise DegenerateInputError("coincident vanishing points")
    l = l / np.linalg.norm(l)
    lc = float(l @ center)
    if abs(lc) < 1e-9 * np.linalg.norm(center):
        raise RectifierDegenerateError("vanishing line passes through the image center")
    l = l / lc

    p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], l])

    def image_direction(vp):
        d = (p @ vp)[:2]
        n = np.linalg.norm(d)
        if n < 1e-12:
            raise RectifierDegenerateError("vanishing point collapses under projective stage")
        return d / n

    d_h = image_direction(vp_h)
    d_v = image_direction(vp_v)
    # Resolve the sign ambiguity of homogeneous directions toward +x / +y.
    if d_h[0] < 0 or (d_h[0] == 0 and d_h[1] < 0):
        d_h = -d_h
    if d_v[1] < 0 or (d_v[1] == 0 and d_v[0] < 0):
        d_v = -d_v
    basis = np.column_stack([d_h, d_v])
    if abs(np.linalg.det(basis)) < 1e-9:
        raise RectifierDegenerateError("vanishing directions are parallel after projection")
    b = np.eye(3)
    b[:2, :2] = np.linalg.inv(basis)

    bp = b @ p
    endpoints = np.stack(segs[:2], axis=1).reshape(-1, 2)  # rows p0, q0, p1, q1, ...
    mapped, good = project_points(bp, endpoints)
    if good.sum() < 2:
        raise RectifierDegenerateError("all segment endpoints near the vanishing line")
    mapped = mapped[good]
    orig = endpoints[good]

    s_mat = np.eye(3)
    for axis in range(2):
        u = mapped[:, axis]
        v = orig[:, axis]
        var = float(np.var(u))
        if var < 1e-12:
            scale, shift = 1.0, float(np.mean(v) - np.mean(u))
        else:
            scale = float(np.cov(u, v, bias=True)[0, 1] / var)
            if scale == 0.0:
                scale = 1.0
            if scale < 0.0:
                # Flip the axis instead of allowing a mirrored rectification.
                scale = -scale
                b[axis, :] = -b[axis, :]
                u = -u
            shift = float(np.mean(v) - scale * np.mean(u))
        s_mat[axis, axis] = scale
        s_mat[axis, 2] = shift

    h = Homography(s_mat @ b @ p)
    return Rectifier(H=h, vp_h=vp_h, vp_v=vp_v, plane_id=plane_id)


def segment_columns(
    segs: SegmentTable, horizontal_vps: list[VanishingPoint], width: int
) -> list[ColumnInterval]:
    """Partition image columns among the horizontal vanishing points.

    Near-horizontal segments of the table cast a softmax confidence vote
    over every column they span; confidently labeled runs become intervals
    and unlabeled gaps are split where the accumulated vote mass of the two
    neighboring labels balances best.
    """
    if not horizontal_vps:
        raise DegenerateInputError("no horizontal vanishing point")
    width = int(width)
    k = len(horizontal_vps)
    best_vp = 0  # list is support-sorted

    if k == 1:
        return [ColumnInterval(0, width, 0)]

    p, q, dirs, mids, _ = segs
    # Segments at most 45 degrees off horizontal vote over the columns they span.
    near = np.abs(dirs[:, 0]) >= np.abs(dirs[:, 1])
    res = _residual_matrix(np.array([vp.point for vp in horizontal_vps]), dirs[near], mids[near])
    conf = np.exp(-res / SOFTMAX_TEMP)
    conf = conf / conf.sum(axis=0)
    lo = np.maximum(0.0, np.floor(np.minimum(p[near, 0], q[near, 0])))
    hi = np.minimum(width - 1.0, np.floor(np.maximum(p[near, 0], q[near, 0])))
    votes = np.zeros((width, k))
    for j in np.flatnonzero(lo <= hi):  # in segment order
        votes[int(lo[j]) : int(hi[j]) + 1] += conf[:, j]

    total = votes.sum(axis=1)
    order = np.argsort(-votes, axis=1, kind="stable")
    first = order[:, 0]
    v1 = votes[np.arange(width), first]
    v2 = votes[np.arange(width), order[:, 1]]
    confident = (total > 0) & (v1 >= MAJORITY_THRESH * total) & (
        (v2 <= 0) | (v1 >= RATIO_THRESH * v2)
    )

    if not np.any(confident):
        return [ColumnInterval(0, width, best_vp)]

    # Maximal runs of confidently, identically labeled columns.
    lab = np.where(confident, first, -1)
    cuts = (np.flatnonzero(np.diff(lab)) + 1).tolist()
    runs = [(s, e, int(lab[s])) for s, e in zip([0] + cuts, cuts + [width]) if lab[s] >= 0]

    boundaries = [0]
    labels = [runs[0][2]]
    for (s0, e0, a), (s1, _e1, bl) in zip(runs, runs[1:]):
        if a == bl:
            continue
        if s1 == e0:
            boundaries.append(s1)
        else:
            # Split the gap where the vote mass of the two labels balances.
            gap = np.arange(e0, s1)
            ca = np.concatenate([[0.0], np.cumsum(votes[gap, a])])
            cb = np.concatenate([[0.0], np.cumsum(votes[gap, bl])])
            obj = ca + (cb[-1] - cb)  # split index t: left of t -> a, rest -> b
            best = np.flatnonzero(obj == obj.max())
            mid = (len(gap)) / 2.0
            t = int(best[np.argmin(np.abs(best - mid))])
            boundaries.append(e0 + t)
        labels.append(bl)
    boundaries.append(width)

    return [
        ColumnInterval(lo, hi, label)
        for lo, hi, label in zip(boundaries, boundaries[1:], labels)
        if lo < hi
    ]


def build_plane_rectifiers(
    segs: SegmentTable,
    vps: list[VanishingPoint],
    width: int,
    height: int,
    vp_params: VpParams,
) -> tuple[list[Rectifier | None], list[ColumnInterval]]:
    """Segment the columns of an image among its vanishing points (from
    image_vps on the same segment table) and build one rectifier per facade
    (numbered left to right by column interval).

    Entries are None where the rectifier is degenerate.  The matching
    pipeline, the rectify command and any simulation of detections in
    rectified frames all use this routine, so they agree on the rectified
    coordinate frames.
    """
    horizontal = [vp for vp in vps if vp.orientation == HORIZONTAL]
    try:
        vertical = best_by_orientation(vps, VERTICAL)
        intervals = segment_columns(segs, horizontal, width)
    except DegenerateInputError:
        return [], []

    # Fit each scale only on segments in the interval that agree with the
    # plane's vanishing geometry; off-plane clutter would skew the fit.
    _, _, dirs, mids, _ = segs
    agree = _residual_matrix(
        np.array([vp.point for vp in horizontal + [vertical]]), dirs, mids
    ) <= vp_params.angle_thresh
    rectifiers: list[Rectifier | None] = []
    for facade_id, interval in enumerate(intervals):
        vp_h = horizontal[interval.plane_id]
        on_plane = (
            (agree[interval.plane_id] | agree[-1])
            & (interval.lo <= mids[:, 0])
            & (mids[:, 0] < interval.hi)
        )
        plane_segs = tuple(col[on_plane] for col in segs)
        try:
            rectifiers.append(
                build_rectifier(
                    vp_h.point, vertical.point, plane_segs, (width, height), facade_id
                )
            )
        except DegenerateInputError:
            rectifiers.append(None)
    return rectifiers, intervals


def backproject_quad(box: DetBox, r: Rectifier) -> QuadBox:
    """Map a rectified-frame detection back to the original image."""
    try:
        return QuadBox(canonical_quad_order(r.H_inv.map_points(box.corners)), box.score)
    except DegenerateInputError as exc:
        raise BackprojectionError("backprojected corner at infinity or quad not convex") from exc


DEDUP_IOU = 0.8

MODES = ("O", "OA", "R", "RA", "O+R", "(O+R)A")


def merge_detections(
    orthogonal: list[QuadBox],
    adjusted: list[QuadBox],
    rectified: list[QuadBox],
    rectified_adjusted: list[QuadBox],
    mode: str,
) -> list[QuadBox]:
    """Union of the configured detection streams with IoU-based dedup.

    Duplicates (quad IoU >= 0.8) are merged keeping the higher score.
    """
    streams = {
        "O": orthogonal,
        "OA": adjusted,
        "R": rectified,
        "RA": rectified_adjusted,
        "O+R": orthogonal + rectified,
        "(O+R)A": adjusted + rectified_adjusted,
    }
    if mode not in streams:
        raise ValueError(f"unknown detection mode {mode!r}")
    pool = streams[mode]
    order = sorted(range(len(pool)), key=lambda i: (-pool[i].score, i))
    corners = np.array([q.corners for q in pool]).reshape(-1, 4, 2)
    lo, hi = quad_bounds(corners)
    # IoU of each candidate with every earlier one whose bounding box it
    # overlaps, in one stacked call; other pairs have IoU 0.
    rank = np.empty(len(pool), dtype=int)
    rank[order] = np.arange(len(pool))
    ii, kk = bbox_overlap_cells(lo, hi, lo, hi)
    earlier = rank[kk] < rank[ii]
    ii, kk = ii[earlier], kk[earlier]
    iou = np.zeros((len(pool), len(pool)))
    iou[ii, kk] = quad_iou(corners[ii], corners[kk])
    kept: list[int] = []
    for i in order:
        if np.all(iou[i, kept] < DEDUP_IOU):
            kept.append(i)
    return [pool[i] for i in kept]
