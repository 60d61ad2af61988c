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
    """Mask of the homogeneous points (..., 3) that lie at infinity; the
    zero vector is one of them."""
    return np.abs(ph[..., 2]) <= INFINITY_EPS * np.hypot(ph[..., 0], ph[..., 1])


def dehomogenize(ph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean points (..., 2) of homogeneous points (..., 3), and the mask
    (...) of the finite ones.  A point at infinity keeps its x, y: its
    direction.  The only place a point leaves homogeneous coordinates."""
    ph = np.asarray(ph, dtype=float)
    finite = ~_at_infinity(ph)
    return ph[..., :2] / np.where(finite, ph[..., 2], 1.0)[..., None], finite


def project_points(m: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images of points (N, 2) under one homography matrix (3, 3) or each of a
    stack (K, 3, 3): points (N, 2) or (K, N, 2) and the mask of the finite
    ones, as dehomogenize returns them.

    One stacked matmul, so each matrix's images are byte-equal to its own
    call's (an einsum or one flattened matmul is not).
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    return dehomogenize(np.column_stack([pts, np.ones(len(pts))]) @ np.swapaxes(m, -1, -2))


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
        if not np.isfinite(m).all():
            raise DegenerateInputError("non-finite homography matrix")
        [m], [ok] = unit_homographies(m[None])
        if not ok:
            raise DegenerateInputError("zero or singular homography matrix")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @property
    def inv(self) -> "Homography":
        return Homography(np.linalg.inv(self.m))

    def map_points(self, pts: np.ndarray) -> np.ndarray:
        """Map an (N, 2) array of finite points to finite points.

        Raises DegenerateInputError if any image lands at infinity.
        """
        xy, finite = project_points(self.m, pts)
        if not finite.all():
            raise DegenerateInputError("point mapped to infinity")
        return xy


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


def _min4(v: np.ndarray) -> np.ndarray:
    """Minimum over a last axis of length 4, from its four slices."""
    return np.minimum(np.minimum(v[..., 0], v[..., 1]), np.minimum(v[..., 2], v[..., 3]))


def _max4(v: np.ndarray) -> np.ndarray:
    """Maximum over a last axis of length 4, from its four slices."""
    return np.maximum(np.maximum(v[..., 0], v[..., 1]), np.maximum(v[..., 2], v[..., 3]))


def _edge_crosses(corners: np.ndarray) -> np.ndarray:
    """Cross products of consecutive edges of quads (..., 4, 2)."""
    e = np.take(corners, _NEXT, axis=-2) - corners
    en = np.take(e, _NEXT, axis=-2)
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


def quad_bounds(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounding boxes of quads (..., 4, 2): min and max corners (..., 2)."""
    x, y = corners[..., 0], corners[..., 1]
    return np.stack((_min4(x), _min4(y)), axis=-1), np.stack((_max4(x), _max4(y)), axis=-1)


def project_quads(h: np.ndarray, corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map quads (N, 4, 2) under each homography matrix of a stack (K, 3, 3).

    Returns the mask (K, N) of the images that QuadBox(canonical_quad_order(
    Homography(m).map_points(q))) accepts, the finite and strictly convex
    ones, and every image (K, N, 4, 2) in source corner order; an image
    outside the mask holds meaningless finite values.
    """
    shape = (len(h), len(corners), 4)
    xy, finite = project_points(h, corners)
    xy = xy.reshape(shape + (2,))
    valid = finite.reshape(shape).all(axis=2)
    # Four edge crosses of one sign, each clear of zero by 1e-9 of the
    # squared coordinate scale (rounding moves a cross by ~1e-14 of it): the
    # image is strictly convex, and its vertex centroid lies so far inside
    # that canonical_quad_order's angle sort keeps the cyclic corner order.
    # Its canonical crosses are then these, permuted and maybe negated, so
    # all positive.  Only the other images take the canonical test.
    tol = 1e-9 * _max4(np.maximum(np.abs(xy[..., 0]), np.abs(xy[..., 1]))) ** 2
    cross = _edge_crosses(xy)
    clear = (_min4(cross) > tol) | (_max4(cross) < -tol)
    doubt = valid & ~clear
    if doubt.any():
        valid[doubt] = np.all(_edge_crosses(canonical_quad_order(xy[doubt])) > 0, axis=-1)
    return valid, xy


def bbox_overlap_cells(
    lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), in row-major order, of the axis-aligned boxes a
    and b, given as min/max corners (Na, 2) and (Nb, 2), whose interiors
    intersect.  Quads with disjoint bounding boxes have IoU 0.

    Per axis, the b boxes that start before box i ends are a prefix of b
    sorted by start, and those that end after it starts are a prefix of b
    sorted by descending end.  Each prefix is a row of bits packed in 64-bit
    words, so box i's cells are the AND of four rows; only rows with a set
    bit are unpacked.
    """
    nb = len(lo_b)
    words = -(-nb // 64)
    prefix = np.arange(nb + 1)[:, None]
    cells = np.full((len(lo_a), words), ~np.uint64(0))
    for key, query in ((lo_b, hi_a), (-hi_b, -lo_a)):
        for d in range(2):
            order = np.argsort(key[:, d], kind="stable")
            rank = np.full(64 * words, nb)  # the padding bits stay clear
            rank[order] = np.arange(nb)
            rows = np.packbits(prefix > rank, axis=1).view(np.uint64)
            cells &= np.take(rows, np.searchsorted(key[order, d], query[:, d]), axis=0)
    live = np.flatnonzero(np.bitwise_or.reduce(cells, axis=1))
    bits = np.unpackbits(cells[live].view(np.uint8), axis=1, count=nb).view(bool)
    i, j = np.divmod(np.flatnonzero(bits), nb)
    return live[i], j


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


def unit_homographies(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit Frobenius norm forms of 3x3 matrices (K, 3, 3), with canonical
    sign (largest-magnitude entry positive), as Homography stores them.

    Returns the forms and the mask (K,) of the matrices that are finite,
    nonzero and invertible, the ones Homography accepts; a form outside the
    mask holds meaningless finite values.
    """
    flat = np.asarray(m, dtype=float).reshape(-1, 9)
    ok = np.isfinite(flat).all(axis=1)
    flat = np.where(ok[:, None], flat, 0.0)
    # np.vecdot rounds as the norm of one matrix does; the axis form of
    # np.linalg.norm does not.
    n = np.sqrt(np.vecdot(flat, flat))
    ok &= n >= 1e-300
    unit = flat / np.where(ok, n, 1.0)[:, None]
    neg = unit[np.arange(len(unit)), np.argmax(np.abs(unit), axis=1)] < 0
    unit = np.where(neg[:, None], -unit, unit).reshape(-1, 3, 3)
    # Invertibility: smallest/largest singular value ratio is scale-free
    # and does not penalize strong perspective at pixel coordinates.
    sv = np.linalg.svd(unit[ok], compute_uv=False)
    ok[ok] = sv[:, -1] > 1e-12 * sv[:, 0]
    return unit, ok


def _hartley_transforms(pts_h: np.ndarray) -> np.ndarray:
    """Isotropic normalization (R, 3, 3) of each row of homogeneous points
    (R, n, 3), from its finite points: centroid to origin, mean distance
    sqrt(2).  A row with fewer than two finite points gets the identity.
    """
    xy, finite = dehomogenize(pts_h)
    count = finite.sum(axis=1)
    t = np.tile(np.eye(3), (len(pts_h), 1, 1))
    # Rows with equal finite counts share one pass: a sum padded with
    # zeros rounds differently from the unpadded one.
    for c in np.flatnonzero(np.bincount(count)[2:]) + 2:
        rows = np.flatnonzero(count == c)
        p = xy[rows][finite[rows]].reshape(len(rows), c, 2)
        ctr = p.mean(axis=1)
        d = np.linalg.norm(p - ctr[:, None], axis=2).mean(axis=1)
        spread = d > 1e-12
        s = np.where(spread, np.sqrt(2.0) / np.where(spread, d, 1.0), 1.0)
        t[rows, 0, 0] = t[rows, 1, 1] = s
        t[rows, 0, 2] = -s * ctr[:, 0]
        t[rows, 1, 2] = -s * ctr[:, 1]
    return t


def dlt_homographies(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted DLT of each row of a stack of n >= 4 correspondences.

    src and dst are (K, n, 2) points or (K, n, 3) homogeneous points, which
    may be at infinity; weights (n,) or (K, n) scale each correspondence's
    equations.  Hartley conditioning is computed from the finite points
    only; infinite correspondences are still transformed consistently
    (translation has no effect on directions).  All rows share one stacked
    SVD, which gives the same bytes as one SVD per row.

    Returns the estimated matrices (K, 3, 3), their unit_homographies forms
    and the mask (K,) of the rows that give a Homography: the system has
    rank 8 and the estimate is invertible.  Homography(m[k]).m equals the
    unit form k byte for byte.  A row holding a non-finite value or a zero
    homogeneous point is left out of the SVD, so it cannot fail the stack.
    """
    src, dst = (np.asarray(p, dtype=float) for p in (src, dst))
    if src.shape != dst.shape:
        raise EstimationError("source/target correspondence count mismatch")
    if src.shape[-1] == 2:
        ones = np.ones(src.shape[:-1] + (1,))
        src, dst = np.concatenate((src, ones), axis=2), np.concatenate((dst, ones), axis=2)
    k, n = src.shape[:2]
    if n < 4:
        raise EstimationError("need at least 4 correspondences")
    w = np.broadcast_to(np.ones(n) if weights is None else np.asarray(weights, dtype=float), (k, n))
    ok = np.ones(k, dtype=bool)
    for p in (src, dst):
        ok &= np.isfinite(p).all(axis=(1, 2)) & p.any(axis=2).all(axis=1)
    ok &= np.isfinite(w).all(axis=1)
    rows = np.flatnonzero(ok)
    s, d, w = src[rows], dst[rows], w[rows]

    t_src = _hartley_transforms(s)
    t_dst = _hartley_transforms(d)
    s = s @ np.swapaxes(t_src, 1, 2)
    d = d @ np.swapaxes(t_dst, 1, 2)
    # Renormalize rows so weights are comparable across correspondences.
    s = s / np.linalg.norm(s, axis=2, keepdims=True)
    d = d / np.linalg.norm(d, axis=2, keepdims=True)

    a = np.zeros((len(rows), 2 * n, 9))
    x, y, z = d[..., 0:1], d[..., 1:2], d[..., 2:3]
    a[:, 0::2, 3:6] = -z * s
    a[:, 0::2, 6:9] = y * s
    a[:, 1::2, 0:3] = z * s
    a[:, 1::2, 6:9] = -x * s
    a *= np.repeat(w, 2, axis=1)[..., None]

    _, sv, vt = np.linalg.svd(a)
    # The solution is unique up to scale only if the system has rank 8.
    ok[rows] = ~(sv[:, 7] < 1e-10 * sv[:, 0])
    m = np.zeros((k, 3, 3))
    m[rows] = np.linalg.inv(t_dst) @ vt[:, -1].reshape(-1, 3, 3) @ t_src
    unit, invertible = unit_homographies(m)
    return m, unit, ok & invertible


def dlt_homography(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> Homography:
    """Weighted DLT (Hartley-normalized) on one set of >= 4 correspondences,
    (n, 2) points or (n, 3) homogeneous points that may be at infinity: the
    one-row dlt_homographies."""
    [m], _, [ok] = dlt_homographies(
        np.asarray(src, dtype=float)[None], np.asarray(dst, dtype=float)[None], weights
    )
    if not ok:
        raise EstimationError("degenerate correspondence configuration")
    return Homography(m)
