"""Synthetic urban scenes with ground truth, plus independent test oracles.

Scenes are built from fronto-parallel facade planes carrying a grid of
windows, pushed through per-view homographies.  Everything the pipeline
ingests (segments, boxes, rectified-frame boxes, features) is generated
deterministically from a seed together with the ground truth needed to
score the pipeline's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom import DetBox, Homography, LineSegment, QuadBox, dehomogenize, normalize_h, project_points
from .guided import ImageInputs, Match, MatchSet
from .objmatch import Feature
from .rectify import build_plane_rectifiers
from .vanishing import VpParams, image_vps, segment_arrays


def view_homography(
    scale: float = 1.0, tx: float = 0.0, ty: float = 0.0, p: float = 0.0, q: float = 0.0
) -> np.ndarray:
    """Facade-to-image homography: projective slant/tilt then scale+shift.

    p foreshortens along x (horizontal vanishing point at x = -1/p in
    facade coordinates), q along y.
    """
    a = np.array([[scale, 0.0, tx], [0.0, scale, ty], [0.0, 0.0, 1.0]])
    proj = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [p, q, 1.0]])
    return a @ proj


def slant_p(slant_deg: float, extent: float) -> float:
    """Projective coefficient giving the requested far-edge foreshortening."""
    return (np.cos(np.radians(slant_deg)) ** -0.5 - 1.0) / extent


@dataclass
class PlaneSpec:
    h_a: np.ndarray  # facade -> image homography, view a
    h_b: np.ndarray  # facade -> image homography, view b
    rows: int = 2
    cols: int = 3
    win_w: float = 60.0
    win_h: float = 80.0
    pitch_x: float = 110.0
    pitch_y: float = 130.0
    # Optional per-cell window sizes, cycled by (row + col) position; models
    # facades mixing windows, doors and balconies of different shapes.
    win_sizes: list[tuple[float, float]] | None = None

    @property
    def extent(self) -> tuple[float, float]:
        return (self.cols * self.pitch_x, self.rows * self.pitch_y)


@dataclass
class NoiseSpec:
    corner_sigma: float = 0.0  # px, on detected box coordinates
    desc_sigma: float = 0.0  # gaussian on view-b descriptors, pre-renorm
    destroyed_frac: float = 0.0  # view-b descriptors replaced outright
    segment_angle_noise: float = 0.0  # degrees, uniform, about the midpoint
    outlier_segments: int = 0
    distractor_boxes: int = 0


@dataclass
class SceneSpec:
    seed: int
    planes: list[PlaneSpec]
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    width: int = 1280
    height: int = 960
    desc_dim: int = 128
    feature_mode: str = "corners+center"  # or "center"
    uniform_descriptor: bool = False  # every feature shares one descriptor
    codebook: int = 0  # >0: descriptors drawn from a small repeated codebook
    with_rect_boxes: bool = False

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be >= 0 and an integer")
        if self.feature_mode not in ("corners+center", "center"):
            raise ValueError(f"unknown feature_mode {self.feature_mode!r}")


@dataclass
class GroundTruth:
    """Planted correspondences; score reads only feature_pairs."""

    feature_pairs: dict[int, int]
    box_pairs: list[tuple[int, int]] = field(default_factory=list)
    box_plane_a: list[int] = field(default_factory=list)  # plane per view-a box, -1 distractor
    box_plane_b: list[int] = field(default_factory=list)
    plane_homographies: list[Homography] = field(default_factory=list)  # view a -> b, per plane
    vps_a: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)  # (vp_h, vp_v)
    corner_pairs: list[np.ndarray] = field(default_factory=list)  # per plane: (n, 4) x1 y1 x2 y2


@dataclass
class Scene:
    img_a: ImageInputs
    img_b: ImageInputs
    gt: GroundTruth


PRESETS = ("single", "two-facade", "grid", "city-block")


def preset(name: str, seed: int) -> SceneSpec:
    """The scene of one of the named PRESETS, the CLI's `synth --preset`."""
    if name == "single":
        planes = [
            PlaneSpec(
                h_a=view_homography(scale=1.0, tx=400, ty=250, p=slant_p(15, 330)),
                h_b=view_homography(scale=1.05, tx=430, ty=270, p=slant_p(25, 330)),
            )
        ]
        noise = NoiseSpec(corner_sigma=1.0, desc_sigma=0.3, outlier_segments=10)
        return SceneSpec(seed=seed, planes=planes, noise=noise)
    if name == "two-facade":
        planes = [
            PlaneSpec(
                h_a=view_homography(scale=1.0, tx=80, ty=250, p=slant_p(10, 330)),
                h_b=view_homography(scale=1.0, tx=60, ty=270, p=slant_p(20, 330)),
            ),
            PlaneSpec(
                h_a=view_homography(scale=1.0, tx=760, ty=250, p=-slant_p(25, 330)),
                h_b=view_homography(scale=0.95, tx=790, ty=260, p=-slant_p(12, 330)),
            ),
        ]
        noise = NoiseSpec(corner_sigma=1.0, desc_sigma=0.3, outlier_segments=10,
                          distractor_boxes=2)
        return SceneSpec(seed=seed, planes=planes, noise=noise, with_rect_boxes=True)
    if name == "grid":
        planes = [
            PlaneSpec(
                h_a=view_homography(scale=1.0, tx=350, ty=200),
                h_b=view_homography(scale=1.0, tx=380, ty=230),
                rows=5, cols=5, win_w=40, win_h=40, pitch_x=60, pitch_y=60,
            )
        ]
        return SceneSpec(seed=seed, planes=planes, feature_mode="center",
                         uniform_descriptor=True)
    if name == "city-block":
        # Two wide facades of repeated windows, 72 boxes per image: the
        # benchmark's grouping-bound scene.
        scale = 0.62
        planes = [
            PlaneSpec(
                h_a=view_homography(scale=scale, tx=40, ty=230, p=slant_p(10, 880)),
                h_b=view_homography(scale=scale, tx=20, ty=250, p=slant_p(20, 880)),
                rows=5, cols=8,
            ),
            PlaneSpec(
                h_a=view_homography(scale=scale, tx=720, ty=230, p=-slant_p(25, 660)),
                h_b=view_homography(scale=scale * 0.95, tx=750, ty=240, p=-slant_p(12, 660)),
                rows=5, cols=6,
            ),
        ]
        noise = NoiseSpec(corner_sigma=1.0, desc_sigma=0.3, outlier_segments=30,
                          distractor_boxes=2)
        return SceneSpec(seed=seed, planes=planes, noise=noise, with_rect_boxes=True)
    raise ValueError(f"unknown preset {name!r}")


def _window_world_corners(plane: PlaneSpec) -> list[np.ndarray]:
    out = []
    for r in range(plane.rows):
        for c in range(plane.cols):
            sizes = plane.win_sizes or [(plane.win_w, plane.win_h)]
            w, h = sizes[(r + c) % len(sizes)]
            x0 = c * plane.pitch_x + (plane.pitch_x - w) / 2.0
            y0 = r * plane.pitch_y + (plane.pitch_y - h) / 2.0
            out.append(np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]]))
    return out


def _rotate_about_mid(seg: LineSegment, deg: float) -> LineSegment:
    c, s = np.cos(np.radians(deg)), np.sin(np.radians(deg))
    rot = np.array([[c, -s], [s, c]])
    m = seg.midpoint
    return LineSegment(m + rot @ (seg.p - m), m + rot @ (seg.q - m))


def _plant_view(
    plane: PlaneSpec,
    h: np.ndarray,
    rng: np.random.Generator | None,
    noise_deg: float = 0.0,
    feature_mode: str = "corners+center",
) -> tuple[list[LineSegment], list[np.ndarray], list[np.ndarray]]:
    """Plant one facade into one view through its facade-to-image homography h.

    Returns the view's segments, window quads (4, 2) and feature points (2,).
    The segments are the window edges plus the full-width and full-height
    facade lines; one shorter than 20 px is dropped, and each kept one is
    turned about its midpoint by a uniform draw in +-noise_deg degrees, the
    only draws made (rng may be None when noise_deg is 0).  The feature
    points are each window's corners and centre, or its centre alone in
    feature_mode "center".
    """
    w_ext, h_ext = plane.extent
    windows = _window_world_corners(plane)
    ends = [(q[i], q[j]) for q in windows for i, j in ((0, 1), (3, 2), (0, 3), (1, 2))]
    ends += [(np.array([0.0, r * plane.pitch_y]), np.array([w_ext, r * plane.pitch_y]))
             for r in range(plane.rows + 1)]
    ends += [(np.array([c * plane.pitch_x, 0.0]), np.array([c * plane.pitch_x, h_ext]))
             for c in range(plane.cols + 1)]
    segs = []
    for a, b in ends:
        (p, q), _ = project_points(h, np.vstack([a, b]))
        if np.linalg.norm(q - p) < 20.0:
            continue
        seg = LineSegment(p, q)
        if noise_deg > 0:
            seg = _rotate_about_mid(seg, rng.uniform(-noise_deg, noise_deg))
        segs.append(seg)
    quads = [project_points(h, q)[0] for q in windows]
    if feature_mode == "corners+center":
        world_pts = [p for q in windows for p in (*q, q.mean(axis=0))]
    else:
        world_pts = [q.mean(axis=0) for q in windows]
    # One point per call: a stacked product can round differently.
    return segs, quads, [project_points(h, p)[0][0] for p in world_pts]


def _outlier_segment(rng: np.random.Generator, width: int, height: int) -> LineSegment:
    """A segment of random position, direction and length in the image."""
    mid = rng.uniform([0, 0], [width, height])
    ang = rng.uniform(0, np.pi)
    half = rng.uniform(15, 35) * np.array([np.cos(ang), np.sin(ang)])
    return LineSegment(mid - half, mid + half)


def _distractor_boxes(rng, corner: str, count: int, width: int, height: int) -> list[DetBox]:
    """Off-plane boxes in one image corner, mutually inconsistent across views."""
    boxes = []
    for k in range(count):
        w = 50.0 + 25.0 * k + rng.uniform(0, 8)
        h = 65.0 + 10.0 * k + rng.uniform(0, 8)
        if corner == "tl":
            x0 = 15.0 + rng.uniform(0, 5)
            y0 = 15.0 + k * (height * 0.18)
        else:
            x0 = width - 110.0 - k * (width * 0.22)
            y0 = height - 110.0 - rng.uniform(0, 5)
        boxes.append(DetBox(x0, y0, x0 + w, y0 + h, 0.55))
    return boxes


def _noisy_hull(p: np.ndarray, rng, sigma: float) -> DetBox:
    lo = p.min(axis=0) + rng.normal(0, sigma, 2)
    hi = p.max(axis=0) + rng.normal(0, sigma, 2)
    lo, hi = np.minimum(lo, hi - 4.0), np.maximum(hi, lo + 4.0)
    return DetBox(lo[0], lo[1], hi[0], hi[1], float(rng.uniform(0.6, 1.0)))


def _rect_boxes(
    segments: list[LineSegment], quads: list[np.ndarray], rng: np.random.Generator,
    spec: SceneSpec,
) -> list[tuple[int, DetBox]]:
    """One view's R stream: a detector run on the pipeline-rectified images.

    The rectified frames are the ones the pipeline itself reconstructs from
    the view's segments, so backprojection inverts them exactly.  A window
    quad gets a noisy hull in the frame of the facade whose column interval
    holds its centre, and no box when there is none.
    """
    table = segment_arrays(segments)
    vps = image_vps(table, spec.width, spec.height, VpParams())
    rectifiers, intervals = build_plane_rectifiers(table, vps, spec.width, spec.height, VpParams())
    out = []
    for p in quads:
        cx = float(p[:, 0].mean())
        for facade_id, iv in enumerate(intervals):
            if iv.lo <= cx < iv.hi and rectifiers[facade_id] is not None:
                mapped = rectifiers[facade_id].H.map_points(p)
                out.append((facade_id, _noisy_hull(mapped, rng, spec.noise.corner_sigma)))
                break
    return out


def _noisy_descriptors(base: list[np.ndarray], rng, spec: SceneSpec) -> list[np.ndarray]:
    """View b's descriptors: the destroyed_frac share drawn anew, the rest
    perturbed by desc_sigma, each scaled to unit norm."""
    noise = spec.noise
    destroyed = set()
    if noise.destroyed_frac > 0 and base:
        k = int(round(noise.destroyed_frac * len(base)))
        destroyed = set(rng.choice(len(base), size=k, replace=False).tolist())
    out = []
    for idx, d in enumerate(base):
        if idx in destroyed:
            d = rng.standard_normal(spec.desc_dim)
        elif noise.desc_sigma > 0:
            d = d + rng.normal(0, noise.desc_sigma, spec.desc_dim)
        out.append(d / np.linalg.norm(d))
    return out


def generate(spec: SceneSpec) -> Scene:
    """The scene of spec: both views' inputs and the planted ground truth.

    Every draw comes from one generator seeded with spec.seed, in this
    order: per plane, the segments of view a, then of view b, one hull for a
    and one for b per window, then the plane's descriptors; per outlier
    segment, one for a, then one for b; the R stream of a, then of b; the
    distractors of a, then of b; then view b's descriptors and id shuffle.
    """
    rng = np.random.default_rng(spec.seed)
    noise = spec.noise
    # Per view (a, b): segments, window quads, feature points, boxes and the
    # plane of each box.
    segs, quads, points, boxes, box_plane = (([], []) for _ in range(5))
    box_pairs, plane_h, vps_a, corner_pairs = [], [], [], []

    if spec.uniform_descriptor:
        shared_desc = normalize_h(rng.standard_normal(spec.desc_dim))  # unit
        shared_desc = shared_desc / np.linalg.norm(shared_desc)
    codebook = None
    if spec.codebook > 0:
        codebook = rng.standard_normal((spec.codebook, spec.desc_dim))
        codebook /= np.linalg.norm(codebook, axis=1, keepdims=True)

    base_descs: list[np.ndarray] = []

    for pid, plane in enumerate(spec.planes):
        plane_h.append(Homography(plane.h_b @ np.linalg.inv(plane.h_a)))
        vps_a.append((normalize_h(plane.h_a @ [1, 0, 0]), normalize_h(plane.h_a @ [0, 1, 0])))

        planted = [
            _plant_view(plane, h, rng, noise.segment_angle_noise, spec.feature_mode)
            for h in (plane.h_a, plane.h_b)
        ]
        for v, (plane_segs, plane_quads, plane_pts) in enumerate(planted):
            segs[v].extend(plane_segs)
            quads[v].extend(plane_quads)
            points[v].extend(plane_pts)

        window_pairs = list(zip(planted[0][1], planted[1][1]))
        for pair in window_pairs:
            for v, quad in enumerate(pair):
                boxes[v].append(_noisy_hull(quad, rng, noise.corner_sigma))
                box_plane[v].append(pid)
            box_pairs.append((len(boxes[0]) - 1, len(boxes[1]) - 1))
        corner_pairs.append(np.vstack([np.hstack(pair) for pair in window_pairs]))

        for _ in planted[0][2]:  # one base descriptor per feature point
            if spec.uniform_descriptor:
                base_descs.append(shared_desc)
            elif codebook is not None:
                base_descs.append(codebook[len(base_descs) % spec.codebook])
            else:
                d = rng.standard_normal(spec.desc_dim)
                base_descs.append(d / np.linalg.norm(d))

    for _ in range(noise.outlier_segments):
        for view_segs in segs:
            view_segs.append(_outlier_segment(rng, spec.width, spec.height))

    rect = [
        _rect_boxes(view_segs, view_quads, rng, spec) if spec.with_rect_boxes else []
        for view_segs, view_quads in zip(segs, quads)
    ]

    for view_boxes, view_planes, corner in zip(boxes, box_plane, ("tl", "br")):
        extra = _distractor_boxes(rng, corner, noise.distractor_boxes, spec.width, spec.height)
        view_boxes.extend(extra)
        view_planes.extend([-1] * len(extra))

    descs_b = _noisy_descriptors(base_descs, rng, spec)
    # Shuffle view-b features so ids carry no alignment information.
    perm = rng.permutation(len(base_descs))
    feats = (
        [Feature(id=i, pos=pos, desc=d) for i, (pos, d) in enumerate(zip(points[0], base_descs))],
        [Feature(id=j, pos=points[1][src], desc=descs_b[src]) for j, src in enumerate(perm)],
    )
    img_a, img_b = (
        ImageInputs(width=spec.width, height=spec.height, segments=s, boxes=b,
                    features=f, rect_boxes=r)
        for s, b, f, r in zip(segs, boxes, feats, rect)
    )
    gt = GroundTruth(
        box_pairs=box_pairs,
        box_plane_a=box_plane[0],
        box_plane_b=box_plane[1],
        feature_pairs={int(src): j for j, src in enumerate(perm)},
        plane_homographies=plane_h,
        vps_a=vps_a,
        corner_pairs=corner_pairs,
    )
    return Scene(img_a=img_a, img_b=img_b, gt=gt)


def pencil_segments(
    vp: np.ndarray,
    n: int,
    rng: np.random.Generator,
    region: tuple[float, float, float, float] = (0, 0, 1280, 960),
    length_range: tuple[float, float] = (25.0, 80.0),
    noise_deg: float = 0.0,
) -> list[LineSegment]:
    """Segments whose directions point at the given vanishing point."""
    vp = np.asarray(vp, dtype=float)
    x0, y0, x1, y1 = region
    out = []
    xy, finite = dehomogenize(vp)
    for _ in range(n):
        mid = rng.uniform([x0, y0], [x1, y1])
        d = xy - mid if finite else xy
        d = d / np.linalg.norm(d)
        half = 0.5 * rng.uniform(*length_range) * d
        seg = LineSegment(mid - half, mid + half)
        if noise_deg > 0:
            seg = _rotate_about_mid(seg, rng.uniform(-noise_deg, noise_deg))
        out.append(seg)
    return out


def brute_force_nn(feats1: list[Feature], feats2: list[Feature]) -> list[Match]:
    """Exhaustive mutual nearest neighbor by cosine similarity (no ratio test)."""
    if not feats1 or not feats2:
        return []
    f1 = sorted(feats1, key=lambda f: f.id)
    f2 = sorted(feats2, key=lambda f: f.id)
    sims = np.array([f.desc for f in f1]) @ np.array([f.desc for f in f2]).T
    best12 = np.argmax(sims, axis=1)
    best21 = np.argmax(sims, axis=0)
    out = []
    for a, b in enumerate(best12):
        if int(best21[int(b)]) == a:
            out.append(Match(i=f1[a].id, j=f2[int(b)].id, sim=float(sims[a, b]), group_id=-1))
    return out


def _inside_quad_grid(quad: QuadBox, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mask (len(ys), len(xs)) of the grid points (xs[j], ys[i]) inside the quad."""
    v = quad.corners
    e = np.roll(v, -1, axis=0) - v
    inside = np.ones((len(ys), len(xs)), dtype=bool)
    for k in range(4):
        # The edge's cross product with each point, split by grid axis.
        inside &= (e[k, 0] * (ys - v[k, 1]))[:, None] - (e[k, 1] * (xs - v[k, 0]))[None, :] >= 0
    return inside


def raster_iou(a: QuadBox, b: QuadBox, resolution: int = 1000) -> float:
    """IoU by rasterizing both quads on a grid over their joint bounding box."""
    corners = np.vstack([a.corners, b.corners])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    span = hi - lo
    if span[0] <= 0 or span[1] <= 0:
        return 0.0
    xs = lo[0] + (np.arange(resolution) + 0.5) * span[0] / resolution
    ys = lo[1] + (np.arange(resolution) + 0.5) * span[1] / resolution
    in_a = _inside_quad_grid(a, xs, ys)
    in_b = _inside_quad_grid(b, xs, ys)
    union = int(np.count_nonzero(in_a | in_b))
    if union == 0:
        return 0.0
    return float(np.count_nonzero(in_a & in_b)) / union


@dataclass
class ScoreReport:
    precision: float
    recall: float
    n_correct: int
    n_matches: int


def score(
    matches: MatchSet | list[Match],
    feats2: list[Feature],
    gt: GroundTruth,
    tol: float = 3.0,
) -> ScoreReport:
    """Precision/recall of matches against the planted correspondences.

    A match (i, j) is correct when the true partner of i lies within tol
    pixels of feature j.  An empty match set scores precision 1 (vacuous).
    Raises ValueError unless tol >= 0.
    """
    if not tol >= 0.0:  # also rejects nan
        raise ValueError("tol must be >= 0")
    mlist = matches.matches if isinstance(matches, MatchSet) else matches
    pos2 = {f.id: f.pos for f in feats2}
    correct = 0
    for m in mlist:
        jt = gt.feature_pairs.get(m.i)
        if jt is None:
            continue
        if np.linalg.norm(pos2[jt] - pos2[m.j]) <= tol:
            correct += 1
    precision = 1.0 if not mlist else correct / len(mlist)
    recall = 0.0 if not gt.feature_pairs else correct / len(gt.feature_pairs)
    return ScoreReport(precision=precision, recall=recall, n_correct=correct, n_matches=len(mlist))


def homography_rms(h: Homography, plane_id: int, gt: GroundTruth) -> float:
    pairs = gt.corner_pairs[plane_id]
    proj = h.map_points(pairs[:, :2])
    return float(np.sqrt(np.mean(np.sum((proj - pairs[:, 2:]) ** 2, axis=1))))
