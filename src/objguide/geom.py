"""Homogeneous 2D geometry: points, lines, homographies, and convex-quad IoU.

All projective quantities are numpy 3-vectors (points/lines) or 3x3 matrices.
Points and lines compare equal up to a nonzero scale factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A point (x, y, w) counts as "at infinity" when |w| is negligible against
# the Euclidean part.  Single shared predicate for the whole package.
INFINITY_EPS = 1e-9
SCALE_TOL = 1e-9  # same_up_to_scale: |a x b| <= SCALE_TOL |a| |b|
CONTAINS_EPS = 1e-9  # points_in_quads: edge slack, as a cross product


class GeometryError(Exception):
    """Base class for all geometric failures in this package."""


class DegenerateInputError(GeometryError):
    """Input configuration admits no unique answer (coincident points, ...)."""


class EstimationError(GeometryError):
    """A fit could not be computed (rank deficiency, near-singular system)."""


def normalize_h(v: np.ndarray) -> np.ndarray:
    """Scale a homogeneous 3-vector to unit norm with canonical sign.

    The sign is chosen so the largest-magnitude component is positive,
    making equality tests on projective quantities well defined.
    """
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise DegenerateInputError("zero homogeneous vector")
    v = v / n
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v
    return v


def _at_infinity(ph: np.ndarray) -> np.ndarray:
    """Mask of the homogeneous points (..., 3) that lie at infinity."""
    return np.abs(ph[..., 2]) < INFINITY_EPS * np.hypot(ph[..., 0], ph[..., 1])


def same_up_to_scale(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the rows of two stacks of 3-vectors (..., 3) that are equal up to scale."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cross = np.linalg.norm(np.cross(a, b), axis=-1)
    return cross <= SCALE_TOL * np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)


def join(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross products a x b of stacks of homogeneous 3-vectors (..., 3).

    The join of two points is the line through both; the join of two lines
    is their intersection point (at infinity when they are parallel).
    Returns the products and the mask (...) of the rows with no unique
    answer, coincident points or identical lines: |a x b| < 1e-12 |a| |b|.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.cross(a, b)
    norm = np.linalg.norm
    return c, norm(c, axis=-1) < 1e-12 * norm(a, axis=-1) * norm(b, axis=-1)


@dataclass(frozen=True)
class LineSegment:
    """Image line segment with endpoints in pixels (origin top-left, y down)."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).reshape(2))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(2))
        if not (np.isfinite(self.p).all() and np.isfinite(self.q).all()):
            raise DegenerateInputError("non-finite segment endpoint")
        if self.length <= 0.0:
            raise DegenerateInputError("zero-length segment")

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.q - self.p))

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.p + self.q)


@dataclass(frozen=True)
class Homography:
    """3x3 invertible projective map, stored with unit Frobenius norm and
    canonical sign (largest-magnitude entry positive)."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float).reshape(3, 3)
        n = np.linalg.norm(m)
        if n < 1e-300:
            raise DegenerateInputError("zero homography matrix")
        m = m / n
        flat = m.ravel()
        k = int(np.argmax(np.abs(flat)))
        if flat[k] < 0:
            m = -m
        # Invertibility: smallest/largest singular value ratio is scale-free
        # and does not penalize strong perspective at pixel coordinates.
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise DegenerateInputError("homography matrix is singular")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @property
    def inv(self) -> "Homography":
        return Homography(np.linalg.inv(self.m))

    def map_points(self, pts: np.ndarray) -> np.ndarray:
        """Map an (N, 2) array of finite points to finite points.

        Raises DegenerateInputError if any image lands at infinity.
        """
        ph = self._map_h(pts)
        if np.any(_at_infinity(ph)):
            raise DegenerateInputError("point mapped to infinity")
        return ph[:, :2] / ph[:, 2:]

    def _map_h(self, pts: np.ndarray) -> np.ndarray:
        """Homogeneous images (N, 3) of an (N, 2) array of finite points."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        return np.column_stack([pts, np.ones(len(pts))]) @ self.m.T


@dataclass(frozen=True)
class DetBox:
    """Axis-aligned detection box."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    score: float = 1.0

    def __post_init__(self):
        if not np.isfinite([self.xmin, self.ymin, self.xmax, self.ymax]).all():
            raise DegenerateInputError("non-finite detection box coordinate")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise DegenerateInputError("empty detection box")
        if not (0.0 <= self.score <= 1.0):
            raise DegenerateInputError("detection score outside [0, 1]")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self) -> np.ndarray:
        return np.array([(self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0])

    @property
    def corners(self) -> np.ndarray:
        """Corners in TL, TR, BR, BL order."""
        return np.array(
            [
                [self.xmin, self.ymin],
                [self.xmax, self.ymin],
                [self.xmax, self.ymax],
                [self.xmin, self.ymax],
            ]
        )


# Index of each quad corner's successor.
_NEXT = np.array([1, 2, 3, 0])


def _edge_crosses(corners: np.ndarray) -> np.ndarray:
    """Cross products of consecutive edges of quads (..., 4, 2)."""
    e = corners[..., _NEXT, :] - corners
    en = e[..., _NEXT, :]
    return e[..., 0] * en[..., 1] - e[..., 1] * en[..., 0]


def canonical_quad_order(corners: np.ndarray) -> np.ndarray:
    """Reorder 4 convex-position points to canonical TL, TR, BR, BL.

    Points are sorted by angle about their centroid (positive shoelace in
    image coordinates, y down) and rotated so the top-left-most corner,
    the one minimizing x + y, comes first.  Takes one quad (4, 2) or a
    stack (N, 4, 2) and returns the same shape.
    """
    corners = np.asarray(corners, dtype=float)
    if corners.ndim != 3:
        return canonical_quad_order(corners.reshape(1, 4, 2))[0]
    c = corners.mean(axis=1)
    ang = np.arctan2(corners[..., 1] - c[:, 1:], corners[..., 0] - c[:, :1])
    order = np.argsort(ang, axis=1, kind="stable")
    start = np.argmin(np.take_along_axis(corners.sum(axis=2), order, axis=1), axis=1)
    order = np.take_along_axis(order, (start[:, None] + np.arange(4)) % 4, axis=1)
    return np.take_along_axis(corners, order[..., None], axis=1)


@dataclass(frozen=True)
class QuadBox:
    """Four-corner perspective box, corners in TL, TR, BR, BL order."""

    corners: np.ndarray
    score: float = 1.0

    def __post_init__(self):
        corners = np.asarray(self.corners, dtype=float).reshape(4, 2)
        crosses = _edge_crosses(corners)
        if not np.all(crosses > 0):
            raise DegenerateInputError("quad corners are not strictly convex in order")
        if not (0.0 <= self.score <= 1.0):
            raise DegenerateInputError("quad score outside [0, 1]")
        corners.flags.writeable = False
        object.__setattr__(self, "corners", corners)

    @classmethod
    def from_detbox(cls, box: DetBox) -> "QuadBox":
        return cls(box.corners, box.score)


def points_in_quads(corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask (N, P) of the points (P, 2) inside each quad (N, 4, 2) or within
    CONTAINS_EPS of its edges, as a cross product."""
    corners = np.asarray(corners, dtype=float)
    p = np.asarray(points, dtype=float)
    inside = np.ones((len(corners), len(p)), dtype=bool)
    for k in range(4):
        v = corners[:, k]
        e = corners[:, _NEXT[k]] - v
        # The side of edge k, one (N, P) plane at a time.
        dx = p[:, 0] - v[:, :1]
        dy = p[:, 1] - v[:, 1:]
        inside &= e[:, :1] * dy - e[:, 1:] * dx >= -CONTAINS_EPS
    return inside


def _polygon_areas(poly: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Shoelace areas (K,) of polygons in a padded vertex buffer (K, W, 2)
    whose row k holds count[k] vertices.

    Rows with equal vertex counts share one np.vecdot on strided views: a
    zero-padded dot product rounds differently from the unpadded one.
    """
    area = np.zeros(len(poly))
    # The vertex counts present; np.unique would import numpy.ma.
    for n in np.flatnonzero(np.bincount(count)[1:]) + 1:
        rows = np.flatnonzero(count == n)
        p = poly[rows, :n]
        x, y = p[..., 0], p[..., 1]
        x_next = np.concatenate((x[:, 1:], x[:, :1]), axis=1)
        y_next = np.concatenate((y[:, 1:], y[:, :1]), axis=1)
        dots = np.vecdot(x, y_next) - np.vecdot(y, x_next)
        area[rows] = 0.5 * np.abs(dots)
    return area


def project_quads(h: np.ndarray, corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map quads (N, 4, 2) under each homography matrix of a stack (K, 3, 3),
    as QuadBox(canonical_quad_order(Homography(m).map_points(q))) does for
    one matrix and one quad.

    Returns the mask (K, N) of the images that are finite and strictly
    convex, and every image (K, N, 4, 2) in canonical corner order; an
    image outside the mask holds meaningless finite values.
    """
    corners = np.asarray(corners, dtype=float)
    n = len(corners)
    pts = np.column_stack([corners.reshape(-1, 2), np.ones(4 * n)])
    # A stacked matmul: each matrix's product is bit-identical to its
    # Homography._map_h (an einsum or one flattened matmul is not).
    ph = (pts @ np.swapaxes(h, 1, 2)).reshape(len(h), n, 4, 3)
    finite = ~np.any(_at_infinity(ph), axis=2)
    w = np.where(finite[..., None, None], ph[..., 2:], 1.0)
    quads = canonical_quad_order((ph[..., :2] / w).reshape(-1, 4, 2)).reshape(ph.shape[:-1] + (2,))
    return finite & np.all(_edge_crosses(quads) > 0, axis=-1), quads


def bbox_overlaps(
    lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray
) -> np.ndarray:
    """(..., Na, Nb) mask of axis-aligned boxes, given as min/max corners
    (..., N, 2), whose interiors intersect.  Quads with disjoint bounding
    boxes have IoU 0."""
    # Built in place: for a grouping round, the mask is the largest array.
    cells = hi_b[..., None, :, 0] > lo_a[..., :, None, 0]
    cells &= lo_b[..., None, :, 0] < hi_a[..., :, None, 0]
    cells &= hi_b[..., None, :, 1] > lo_a[..., :, None, 1]
    cells &= lo_b[..., None, :, 1] < hi_a[..., :, None, 1]
    return cells


def _clip_by_quads(subject: np.ndarray, count: np.ndarray, clipper: np.ndarray):
    """Sutherland-Hodgman clip of convex polygons by convex quads (K, 4, 2).

    subject (K, W, 2) is a padded vertex buffer whose row k holds count[k]
    vertices.  Returns the clipped buffer and counts.  Each vertex is
    computed by the same floating-point operations, in the same order, as
    in the textbook loop over one polygon, so no result depends on the
    stacking.
    """
    rows = np.arange(len(subject))[:, None]
    # Clip edge k starts at corner[:, k] and runs along edge[:, k].
    corner = clipper
    edge = clipper[:, _NEXT] - corner
    for k in range(4):
        if not count.any():
            break
        ax, ay, ex, ey = corner[:, k, 0], corner[:, k, 1], edge[:, k, 0], edge[:, k, 1]
        j = np.arange(subject.shape[1])
        live = j < count[:, None]
        inside = (
            ex[:, None] * (subject[..., 1] - ay[:, None])
            - ey[:, None] * (subject[..., 0] - ax[:, None])
            >= 0.0
        )
        # Each vertex e follows s, the previous live vertex (cyclically).
        prev = np.where(j == 0, count[:, None] - 1, j - 1)
        cross = live & (inside != inside[rows, prev])
        keep = live & inside
        # A vertex slot emits the crossing of edge s-e, then e itself.
        emitted = cross.astype(int) + keep
        start = np.cumsum(emitted, axis=1) - emitted
        count = emitted.sum(axis=1)
        out = np.zeros((len(subject), count.max(initial=0), 2))
        r, c = np.nonzero(cross)
        s, e = subject[r, prev[r, c]], subject[r, c]
        dx, dy = e[:, 0] - s[:, 0], e[:, 1] - s[:, 1]
        exr, eyr = ex[r], ey[r]
        t = (exr * (ay[r] - s[:, 1]) - eyr * (ax[r] - s[:, 0])) / (exr * dy - eyr * dx)
        out[r, start[r, c]] = np.column_stack((s[:, 0] + t * dx, s[:, 1] + t * dy))
        r, c = np.nonzero(keep)
        out[r, start[r, c] + cross[r, c]] = subject[r, c]
        subject = out
    return subject, count


def quad_iou(a: QuadBox | np.ndarray, b: QuadBox | np.ndarray) -> float | np.ndarray:
    """Area intersection-over-union of convex quads.

    a and b are two QuadBoxes, or two corner arrays of one quad (4, 2) or
    of K quads (K, 4, 2), in positive-shoelace order (image coordinates,
    y down).  Returns a float for one pair, else a (K,) array.  The
    intersection clips a by b, all pairs at once (Sutherland & Hodgman,
    CACM 1974).
    """
    ca = np.asarray(a.corners if isinstance(a, QuadBox) else a, dtype=float)
    cb = np.asarray(b.corners if isinstance(b, QuadBox) else b, dtype=float)
    if ca.ndim == 2:
        return float(quad_iou(ca[None], cb[None])[0])
    areas = _polygon_areas(np.concatenate((ca, cb)), np.full(2 * len(ca), 4))
    area_a, area_b = areas[: len(ca)], areas[len(ca) :]
    ok = (area_a >= 1e-12) & (area_b >= 1e-12)
    poly, count = _clip_by_quads(np.where(ok[:, None, None], ca, 0.0), np.where(ok, 4, 0), cb)
    count[count < 3] = 0
    inter = _polygon_areas(poly, count)
    union = area_a + area_b - inter
    hit = (count > 0) & (union > 0.0)
    iou = np.zeros(len(ca))
    iou[hit] = np.minimum(np.maximum(inter[hit] / union[hit], 0.0), 1.0)
    return iou


def _hartley_transform(pts: np.ndarray) -> np.ndarray:
    """Isotropic normalization: centroid to origin, mean distance sqrt(2)."""
    c = pts.mean(axis=0)
    d = np.linalg.norm(pts - c, axis=1).mean()
    s = np.sqrt(2.0) / d if d > 1e-12 else 1.0
    return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])


def dlt_homography_h(
    src_h: np.ndarray, dst_h: np.ndarray, weights: np.ndarray | None = None
) -> Homography:
    """Weighted DLT on homogeneous correspondences (points may be at infinity).

    Hartley conditioning is computed from the finite points only; infinite
    correspondences are still transformed consistently (translation has no
    effect on directions).
    """
    src_h = np.asarray(src_h, dtype=float).reshape(-1, 3)
    dst_h = np.asarray(dst_h, dtype=float).reshape(-1, 3)
    n = len(src_h)
    if n < 4:
        raise EstimationError("need at least 4 correspondences")
    if weights is None:
        weights = np.ones(n)

    def finite_xy(pts_h):
        mask = ~_at_infinity(pts_h)
        return pts_h[mask, :2] / pts_h[mask, 2:3]

    fs = finite_xy(src_h)
    fd = finite_xy(dst_h)
    t_src = _hartley_transform(fs) if len(fs) >= 2 else np.eye(3)
    t_dst = _hartley_transform(fd) if len(fd) >= 2 else np.eye(3)

    s = src_h @ t_src.T
    d = dst_h @ t_dst.T
    # Renormalize rows so weights are comparable across correspondences.
    s = s / np.linalg.norm(s, axis=1, keepdims=True)
    d = d / np.linalg.norm(d, axis=1, keepdims=True)

    a = np.zeros((2 * n, 9))
    x, y, w = d[:, 0], d[:, 1], d[:, 2]
    a[0::2, 3:6] = -w[:, None] * s
    a[0::2, 6:9] = y[:, None] * s
    a[1::2, 0:3] = w[:, None] * s
    a[1::2, 6:9] = -x[:, None] * s
    a *= np.repeat(np.asarray(weights, dtype=float), 2)[:, None]

    _, sv, vt = np.linalg.svd(a)
    # The solution is unique up to scale only if the system has rank 8.
    if sv[7] < 1e-10 * sv[0]:
        raise EstimationError("degenerate correspondence configuration")
    h = vt[-1].reshape(3, 3)
    m = np.linalg.inv(t_dst) @ h @ t_src
    try:
        return Homography(m)
    except DegenerateInputError as exc:
        raise EstimationError(str(exc)) from exc


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Homography from >= 4 finite point correspondences (Hartley-normalized)."""
    src = np.asarray(src, dtype=float).reshape(-1, 2)
    dst = np.asarray(dst, dtype=float).reshape(-1, 2)
    if src.shape != dst.shape:
        raise EstimationError("source/target correspondence count mismatch")
    ones = np.ones((len(src), 1))
    return dlt_homography_h(np.hstack([src, ones]), np.hstack([dst, ones]))
