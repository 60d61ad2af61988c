"""Vanishing point estimation from line segments via sequential RANSAC.

Each RANSAC round samples two segments, intersects their supporting lines,
and scores the candidate by the number of segments whose direction agrees
with it within an angular threshold.  The winning candidate is refined on
its inliers, the inliers are removed, and the next round starts.

Scoring computes no angles.  A segment is an inlier when |cross| <=
tan(thresh) |dot| of its direction and the direction toward the candidate;
only the pairs within a 1e-9 relative band of that boundary (or near the
zero-length case) are settled by the exact angle, so the counts equal those
of the full residual-angle matrix.  Swapping the two sampled segments only
negates the candidate, so each unordered pair is scored once, at its first
draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geom import (
    DegenerateInputError,
    LineSegment,
    _hartley_transforms,
    dehomogenize,
    join,
    normalize_h,
)

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


class MissingVanishingPointError(DegenerateInputError):
    """A stage that needs a vertical (or horizontal) vanishing point found none."""


MIN_INLIERS = 5
MAX_ITERATIONS = 2000  # RANSAC samples per sequential round
MAX_VPS = 5
VERTICAL_CONE = 20.0  # degrees off the image y-axis


@dataclass(frozen=True)
class VpParams:
    angle_thresh: float = 2.0  # degrees
    rng_seed: int = 0

    def __post_init__(self):
        # Residual angles lie in [0, 90], so at 90 or more every segment is
        # an inlier of every candidate.
        if not 0.0 < self.angle_thresh < 90.0:  # also rejects nan
            raise ValueError("angle_thresh must be in (0, 90)")
        if not isinstance(self.rng_seed, (int, np.integer)) or self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0 and an integer")


@dataclass(frozen=True)
class VanishingPoint:
    point: np.ndarray  # homogeneous, unit norm, canonical sign
    inlier_ids: tuple[int, ...]
    orientation: str | None = None

    @property
    def support(self) -> int:
        return len(self.inlier_ids)


SegmentTable = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def segment_arrays(segments: list[LineSegment]) -> SegmentTable:
    """One image's segment table: endpoints p, q, directions q - p,
    midpoints (each (m, 2)) and lengths (m,), rows in list order."""
    p = np.array([s.p for s in segments]).reshape(-1, 2)
    q = np.array([s.q for s in segments]).reshape(-1, 2)
    return p, q, q - p, 0.5 * (p + q), np.array([s.length for s in segments], dtype=float)


def _residual_matrix(vps: np.ndarray, dirs: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Angle in degrees, for every (vanishing point, segment) pair, between
    the segment direction and the direction toward the point (from the
    segment midpoint when the point is finite).

    vps: (k, 3) homogeneous points; dirs/mids: (m, 2) segment data.
    Returns (k, m) degrees in [0, 90].  atan2(|cross|, |dot|) stays exact
    near 0 degrees, where arccos of the cosine loses about 1e-6 degrees.
    """
    xy, finite = dehomogenize(vps)
    t = xy[:, None, :] - np.where(finite[:, None, None], mids, 0.0)
    cross = np.abs(t[..., 0] * dirs[:, 1] - t[..., 1] * dirs[:, 0])
    dot = np.abs(np.einsum("kmj,mj->km", t, dirs))
    den = np.linalg.norm(t, axis=2) * np.linalg.norm(dirs, axis=1)
    return np.where(den > 1e-12, np.degrees(np.arctan2(cross, dot)), 0.0)


_BAND = 1e-9  # relative slack of the tangent pre-test in _inlier_counts
_MIN_CROSS = 2e-12  # |cross| above this implies den > 1e-12 in _residual_matrix
_BLOCK = 1 << 16  # (candidate, segment) pairs per block of _inlier_counts


def _inlier_counts(
    cands: np.ndarray, dirs: np.ndarray, mids: np.ndarray, thresh: float
) -> np.ndarray:
    """(_residual_matrix(cands, dirs, mids) <= thresh).sum(axis=1), without
    the angles.

    cross and dot are the same products and sums as in _residual_matrix.
    A pair with |cross| < tan(thresh) |dot| by a relative margin _BAND is an
    inlier, one above it by that margin (and with |cross| > _MIN_CROSS, so
    not on the zero-length branch) an outlier.  The rows holding any other
    pair are counted from _residual_matrix itself.  Rows are scored in
    blocks of about _BLOCK pairs, so that the temporaries stay in cache.
    """
    if thresh >= 89.0:  # the band spans _BAND sin cos radians: too thin near 90
        return (_residual_matrix(cands, dirs, mids) <= thresh).sum(axis=1)
    step = max(1, _BLOCK // max(1, len(dirs)))
    if len(cands) > step:
        return np.concatenate([
            _inlier_counts(cands[i : i + step], dirs, mids, thresh)
            for i in range(0, len(cands), step)
        ])
    xy, finite = dehomogenize(cands)
    tx = np.subtract.outer(xy[:, 0], mids[:, 0])
    ty = np.subtract.outer(xy[:, 1], mids[:, 1])
    tx[~finite] = xy[~finite, 0:1]
    ty[~finite] = xy[~finite, 1:2]
    cross = tx * dirs[:, 1]
    cross -= ty * dirs[:, 0]
    np.abs(cross, out=cross)
    tx *= dirs[:, 0]
    ty *= dirs[:, 1]
    tx += ty
    dot = np.abs(tx, out=tx)
    tan_t = np.tan(np.radians(thresh))
    inside = cross < np.multiply(dot, tan_t * (1.0 - _BAND), out=ty)
    outside = (cross > np.multiply(dot, tan_t * (1.0 + _BAND), out=ty)) & (cross > _MIN_CROSS)
    counts = inside.sum(axis=1)
    rows = np.flatnonzero(~(inside | outside).all(axis=1))
    if len(rows):
        counts[rows] = (_residual_matrix(cands[rows], dirs, mids) <= thresh).sum(axis=1)
    return counts


def _first_draws(keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Indices, in draw order, of the valid draws whose key no earlier valid
    draw has.  A stable argsort, not np.unique, which imports numpy.ma."""
    idx = np.flatnonzero(valid)
    order = idx[np.argsort(keys[idx], kind="stable")]
    ks = keys[order]
    head = np.ones(len(ks), dtype=bool)
    head[1:] = ks[1:] != ks[:-1]
    return np.sort(order[head])


def _refine(p: np.ndarray, q: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Null-space refinement: the point minimizing length-weighted incidence
    residuals of the inlier supporting lines.

    Solved in a translated/scaled frame for conditioning at pixel scale.
    """
    ph = np.column_stack([p, np.ones(len(p))])
    qh = np.column_stack([q, np.ones(len(q))])
    [t] = _hartley_transforms(np.vstack([ph, qh])[None])
    ph = ph @ t.T
    qh = qh @ t.T
    lines = np.cross(ph, qh)
    rows = lines / np.linalg.norm(lines, axis=1, keepdims=True)
    rows = rows * lengths[:, None]
    _, _, vt = np.linalg.svd(rows)
    # Lines transform contravariantly, so the refined point maps back by T^-1.
    return normalize_h(np.linalg.inv(t) @ vt[-1])


def estimate_vps(segs: SegmentTable, params: VpParams) -> list[VanishingPoint]:
    """Sequential RANSAC extraction of vanishing points from a segment table.

    Deterministic given params.rng_seed; sampling is biased toward longer
    segments.  Returns vanishing points sorted by decreasing support.
    """
    p_arr, q_arr, dirs, mids, lengths = segs
    n = len(lengths)
    if n < 2:
        return []
    ones = np.ones((n, 1))
    lines, coincident = join(np.hstack([p_arr, ones]), np.hstack([q_arr, ones]))
    if coincident.any():
        raise DegenerateInputError("coincident points define no unique line")
    lines = lines / np.linalg.norm(lines, axis=1, keepdims=True)

    rng = np.random.default_rng(params.rng_seed)
    remaining = np.arange(n)
    found: list[VanishingPoint] = []

    while len(found) < MAX_VPS and len(remaining) >= MIN_INLIERS:
        probs = lengths[remaining] / lengths[remaining].sum()
        i1 = rng.choice(remaining, size=MAX_ITERATIONS, p=probs)
        i2 = rng.choice(remaining, size=MAX_ITERATIONS, p=probs)
        cands = np.cross(lines[i1], lines[i2])
        norms = np.linalg.norm(cands, axis=1)
        valid = (i1 != i2) & (norms > 1e-12)
        if not np.any(valid):
            break
        # (i1, i2) and (i2, i1) give exactly negated candidates, so equal
        # counts: scoring only each pair's first draw keeps argmax on the
        # earliest best sample.
        first = _first_draws(np.minimum(i1, i2) * n + np.maximum(i1, i2), valid)
        cands = cands[first] / norms[first][:, None]
        d_rem, m_rem = dirs[remaining], mids[remaining]
        counts = _inlier_counts(cands, d_rem, m_rem, params.angle_thresh)
        best = int(np.argmax(counts))
        if counts[best] < MIN_INLIERS:
            break
        res_best = _residual_matrix(cands[best : best + 1], d_rem, m_rem)[0]
        cons = remaining[res_best <= params.angle_thresh]
        point = _refine(p_arr[cons], q_arr[cons], lengths[cons])
        res_ref = _residual_matrix(point[None, :], d_rem, m_rem)[0]
        inliers = remaining[res_ref <= params.angle_thresh]
        if len(inliers) < MIN_INLIERS:
            break
        found.append(VanishingPoint(point=point, inlier_ids=tuple(int(i) for i in inliers)))
        keep = res_ref > params.angle_thresh
        remaining = remaining[keep]

    found.sort(key=lambda v: -v.support)
    return found


def classify(
    vps: list[VanishingPoint], center: np.ndarray | tuple[float, float]
) -> list[VanishingPoint]:
    """Assign vertical/horizontal orientations.

    A vanishing point is a vertical candidate when its direction (seen from
    the image center for finite points) is within VERTICAL_CONE of the
    image y-axis.  Only the best-supported candidate keeps the vertical
    label; every other point is horizontal.
    """
    center = np.asarray(center, dtype=float)
    vertical_flags = []
    for vp in vps:
        xy, finite = dehomogenize(vp.point)
        d = xy - center if finite else xy
        dn = np.linalg.norm(d)
        if dn < 1e-12:
            vertical_flags.append(False)
            continue
        off_y = np.degrees(np.arccos(np.clip(abs(d[1]) / dn, 0.0, 1.0)))
        vertical_flags.append(off_y <= VERTICAL_CONE)

    vertical_idx = None
    for k, flag in enumerate(vertical_flags):
        if flag:
            vertical_idx = k  # list is support-sorted, first hit is best
            break
    out = []
    for k, vp in enumerate(vps):
        orientation = VERTICAL if k == vertical_idx else HORIZONTAL
        out.append(replace(vp, orientation=orientation))
    return out


def image_vps(
    segs: SegmentTable, width: float, height: float, params: VpParams
) -> list[VanishingPoint]:
    """Vanishing points of one image's segment table, oriented about the
    image center."""
    return classify(estimate_vps(segs, params), center=(width / 2.0, height / 2.0))


def best_by_orientation(vps: list[VanishingPoint], orientation: str) -> VanishingPoint:
    """Best-supported vanishing point with the given orientation."""
    for vp in vps:  # support-sorted
        if vp.orientation == orientation:
            return vp
    raise MissingVanishingPointError(f"no {orientation} vanishing point available")
