"""Perspective adjustment of axis-aligned detections using vanishing points.

An axis-aligned box is turned into a perspective quad by joining the
midpoints of its horizontal edges with the horizontal vanishing point and
the midpoints of its vertical edges with the vertical one; the four
pairwise intersections of those lines are the adjusted corners.  All boxes
of an image are adjusted in one array pass.
"""

from __future__ import annotations

import numpy as np

from .geom import (
    DetBox,
    QuadBox,
    _at_infinity,
    _edge_crosses,
    join,
    same_up_to_scale,
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


def vote_box_vps(
    boxes: list[DetBox],
    segs: SegmentTable,
    vps: list[VanishingPoint],
    params: VpParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick, for every box of one image, the horizontal and vertical
    vanishing points supported by the segments around it.

    segs is the image's segment table.  A segment votes (with weight = its
    length) for the vanishing point that minimizes its residual angle,
    provided that residual is within params.angle_thresh.  Only segments
    whose midpoint falls inside the box dilated by 50% of its extent take
    part.  With no local votes the globally best-supported vanishing point
    of each orientation is used.
    Returns the picked horizontal and vertical points as two (N, 3) stacks.
    """
    h_global = best_by_orientation(vps, HORIZONTAL)
    v_global = best_by_orientation(vps, VERTICAL)
    _, _, dirs, mids, lengths = segs
    res = _residual_matrix(np.array([vp.point for vp in vps]), dirs, mids)
    nearest = np.argmin(res, axis=0)
    voting = res.min(axis=0) <= params.angle_thresh

    def winner(votes, orientation, fallback):
        ks = [k for k, vp in enumerate(vps) if vp.orientation == orientation and votes[k] > 0]
        # max keeps the first of equal vote totals
        return vps[max(ks, key=lambda k: votes[k])].point if ks else fallback.point

    picks = np.zeros((2, len(boxes), 3))
    for n, box in enumerate(boxes):
        cx, cy = box.center
        hw, hh = 0.75 * box.width, 0.75 * box.height  # box dilated by 50%
        local = voting & (np.abs(mids[:, 0] - cx) <= hw) & (np.abs(mids[:, 1] - cy) <= hh)
        # bincount adds the weights in segment order.
        votes = np.bincount(nearest[local], weights=lengths[local], minlength=len(vps))
        picks[:, n] = winner(votes, HORIZONTAL, h_global), winner(votes, VERTICAL, v_global)
    return picks[0], picks[1]


def adjust_box(
    boxes: list[DetBox], vp_h: np.ndarray, vp_v: np.ndarray
) -> list[QuadBox | None]:
    """Adjust axis-aligned boxes into vanishing-point-aligned quads.

    Given N boxes and (N, 3) stacks of horizontal and vertical vanishing
    points, returns one quad per box, or None where the adjustment is
    degenerate: coincident vanishing points, a vanishing point on an edge
    midpoint, identical construction lines, a corner at infinity, or a quad
    that is not strictly convex.
    """
    vp_h = np.asarray(vp_h, dtype=float).reshape(-1, 3)
    vp_v = np.asarray(vp_v, dtype=float).reshape(-1, 3)
    xmin, ymin, xmax, ymax = np.array(
        [(b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes], dtype=float
    ).reshape(-1, 4).T
    xc, yc = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    # Edge midpoints (N, 4, 3): top, bottom, left, right.
    mids = np.ones((len(xc), 4, 3))
    mids[..., 0] = np.column_stack([xc, xc, xmin, xmax])
    mids[..., 1] = np.column_stack([ymin, ymax, yc, yc])
    lines, bad_line = join(mids, np.stack([vp_h, vp_h, vp_v, vp_v], axis=1))
    # Corners TL, TR, BR, BL meet top/left, top/right, bottom/right, bottom/left.
    corners_h, bad_corner = join(lines[:, [0, 0, 1, 1]], lines[:, [2, 3, 3, 2]])
    failed = same_up_to_scale(vp_h, vp_v) | np.any(
        bad_line | bad_corner | _at_infinity(corners_h), axis=1
    )
    corners = corners_h[..., :2] / np.where(failed[:, None, None], 1.0, corners_h[..., 2:])
    failed |= ~np.all(_edge_crosses(corners) > 0, axis=1)
    return [None if f else QuadBox(c, b.score) for b, c, f in zip(boxes, corners, failed)]
