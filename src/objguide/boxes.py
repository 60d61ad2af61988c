"""Perspective adjustment of axis-aligned detections using vanishing points.

An axis-aligned box is turned into a perspective quad by joining the
midpoints of its horizontal edges with the horizontal vanishing point and
the midpoints of its vertical edges with the vertical one; the four
pairwise intersections of those lines are the adjusted corners.
"""

from __future__ import annotations

import numpy as np

from .geom import (
    DegenerateInputError,
    DetBox,
    QuadBox,
    hom_point,
    intersect,
    is_infinite,
    dehomogenize,
    line_through,
    same_up_to_scale,
)
from .vanishing import (
    HORIZONTAL,
    VERTICAL,
    LineSegment,
    VanishingPoint,
    VpParams,
    _residual_matrix,
    best_by_orientation,
    segment_arrays,
)


class AdjustmentError(DegenerateInputError):
    """Box adjustment produced an invalid (infinite or non-convex) quad."""


def vote_box_vps(
    boxes: list[DetBox],
    segments: list[LineSegment],
    vps: list[VanishingPoint],
    params: VpParams,
) -> list[tuple[VanishingPoint, VanishingPoint]]:
    """Pick, for every box of one image, the horizontal and vertical
    vanishing points supported by the segments around it.

    A segment votes (with weight = its length) for the vanishing point that
    minimizes its residual angle, provided that residual is within
    params.angle_thresh.  Only segments whose midpoint falls inside the box
    dilated by 50% of its extent take part.  With no local votes the
    globally best-supported vanishing point of each orientation is used.
    Returns one (horizontal, vertical) pair per box.
    """
    h_global = best_by_orientation(vps, HORIZONTAL)
    v_global = best_by_orientation(vps, VERTICAL)
    _, _, dirs, mids, lengths = segment_arrays(segments)
    res = _residual_matrix(np.array([vp.point for vp in vps]), dirs, mids)
    nearest = np.argmin(res, axis=0)
    voting = res.min(axis=0) <= params.angle_thresh

    def winner(votes, orientation, fallback):
        ks = [k for k, vp in enumerate(vps) if vp.orientation == orientation and votes[k] > 0]
        # max keeps the first of equal vote totals
        return vps[max(ks, key=lambda k: votes[k])] if ks else fallback

    picks = []
    for box in boxes:
        cx, cy = box.center
        hw, hh = 0.75 * box.width, 0.75 * box.height  # box dilated by 50%
        local = voting & (np.abs(mids[:, 0] - cx) <= hw) & (np.abs(mids[:, 1] - cy) <= hh)
        # bincount adds the weights in segment order.
        votes = np.bincount(nearest[local], weights=lengths[local], minlength=len(vps))
        picks.append((winner(votes, HORIZONTAL, h_global), winner(votes, VERTICAL, v_global)))
    return picks


def adjust_box(box: DetBox, vp_h: np.ndarray, vp_v: np.ndarray) -> QuadBox:
    """Adjust an axis-aligned box into a vanishing-point-aligned quad."""
    vp_h = np.asarray(vp_h, dtype=float)
    vp_v = np.asarray(vp_v, dtype=float)
    if same_up_to_scale(vp_h, vp_v):
        raise DegenerateInputError("identical horizontal and vertical vanishing points")

    top_mid = hom_point((box.xmin + box.xmax) / 2.0, box.ymin)
    bot_mid = hom_point((box.xmin + box.xmax) / 2.0, box.ymax)
    left_mid = hom_point(box.xmin, (box.ymin + box.ymax) / 2.0)
    right_mid = hom_point(box.xmax, (box.ymin + box.ymax) / 2.0)

    try:
        top = line_through(top_mid, vp_h)
        bottom = line_through(bot_mid, vp_h)
        left = line_through(left_mid, vp_v)
        right = line_through(right_mid, vp_v)
        corners_h = [
            intersect(top, left),
            intersect(top, right),
            intersect(bottom, right),
            intersect(bottom, left),
        ]
    except DegenerateInputError as exc:
        raise AdjustmentError(str(exc)) from exc

    if any(is_infinite(c) for c in corners_h):
        raise AdjustmentError("adjusted corner at infinity")
    corners = np.array([dehomogenize(c) for c in corners_h])
    try:
        return QuadBox(corners, box.score)
    except DegenerateInputError as exc:
        raise AdjustmentError(str(exc)) from exc
