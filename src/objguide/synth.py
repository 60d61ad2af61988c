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

from .geom import DetBox, Homography, LineSegment, QuadBox, _at_infinity, normalize_h
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
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")


@dataclass
class GroundTruth:
    box_pairs: list[tuple[int, int]]
    box_plane_a: list[int]  # plane id per view-a box, -1 for distractors
    box_plane_b: list[int]
    feature_pairs: dict[int, int]
    plane_homographies: list[Homography]  # view a -> view b, per plane
    vps_a: list[tuple[np.ndarray, np.ndarray]]  # (vp_h, vp_v) per plane
    vps_b: list[tuple[np.ndarray, np.ndarray]]
    plane_x_extent_a: list[tuple[float, float]]  # projected column span
    plane_x_extent_b: list[tuple[float, float]]
    corner_pairs: list[np.ndarray]  # per plane: (n, 4) rows x1 y1 x2 y2


@dataclass
class Scene:
    img_a: ImageInputs
    img_b: ImageInputs
    gt: GroundTruth


def _window_world_corners(plane: PlaneSpec) -> list[np.ndarray]:
    out = []
    for r in range(plane.rows):
        for c in range(plane.cols):
            if plane.win_sizes:
                w, h = plane.win_sizes[(r + c) % len(plane.win_sizes)]
            else:
                w, h = plane.win_w, plane.win_h
            x0 = c * plane.pitch_x + (plane.pitch_x - w) / 2.0
            y0 = r * plane.pitch_y + (plane.pitch_y - h) / 2.0
            out.append(
                np.array(
                    [[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]]
                )
            )
    return out


def _project(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    ph = np.column_stack([pts, np.ones(len(pts))]) @ h.T
    return ph[:, :2] / ph[:, 2:3]


def _rotate_about_mid(seg: LineSegment, deg: float) -> LineSegment:
    c, s = np.cos(np.radians(deg)), np.sin(np.radians(deg))
    rot = np.array([[c, -s], [s, c]])
    m = seg.midpoint
    return LineSegment(m + rot @ (seg.p - m), m + rot @ (seg.q - m))


def _plane_segments(plane: PlaneSpec, h: np.ndarray, rng, noise_deg: float) -> list[LineSegment]:
    """Window edges plus full-width/height facade lines, projected."""
    w_ext, h_ext = plane.extent
    segs = []
    for quad in _window_world_corners(plane):
        for a, b in ((0, 1), (3, 2), (0, 3), (1, 2)):
            segs.append((quad[a], quad[b]))
    for r in range(plane.rows + 1):
        y = min(r * plane.pitch_y, h_ext)
        segs.append((np.array([0.0, y]), np.array([w_ext, y])))
    for c in range(plane.cols + 1):
        x = min(c * plane.pitch_x, w_ext)
        segs.append((np.array([x, 0.0]), np.array([x, h_ext])))

    out = []
    for a, b in segs:
        pts = _project(h, np.vstack([a, b]))
        if np.linalg.norm(pts[1] - pts[0]) < 20.0:
            continue
        seg = LineSegment(pts[0], pts[1])
        if noise_deg > 0:
            seg = _rotate_about_mid(seg, rng.uniform(-noise_deg, noise_deg))
        out.append(seg)
    return out


def _feature_world_points(plane: PlaneSpec, mode: str) -> list[np.ndarray]:
    pts = []
    for quad in _window_world_corners(plane):
        if mode == "corners+center":
            pts.extend(list(quad))
        pts.append(quad.mean(axis=0))
    return pts


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


def generate(spec: SceneSpec) -> Scene:
    rng = np.random.default_rng(spec.seed)
    noise = spec.noise

    segs_a: list[LineSegment] = []
    segs_b: list[LineSegment] = []
    boxes_a: list[DetBox] = []
    boxes_b: list[DetBox] = []
    rect_a: list[tuple[int, DetBox]] = []
    rect_b: list[tuple[int, DetBox]] = []
    feats_world: list[tuple[np.ndarray, np.ndarray]] = []  # (pos_a, pos_b)
    box_pairs = []
    box_plane_a: list[int] = []
    box_plane_b: list[int] = []
    vps_a, vps_b = [], []
    ext_a, ext_b = [], []
    plane_h = []
    corner_pairs = []
    window_proj: list[tuple[np.ndarray, np.ndarray]] = []

    if spec.uniform_descriptor:
        shared_desc = normalize_h(rng.standard_normal(spec.desc_dim))[:]  # unit
        shared_desc = shared_desc / np.linalg.norm(shared_desc)
    codebook = None
    if spec.codebook > 0:
        codebook = rng.standard_normal((spec.codebook, spec.desc_dim))
        codebook /= np.linalg.norm(codebook, axis=1, keepdims=True)

    base_descs: list[np.ndarray] = []

    for pid, plane in enumerate(spec.planes):
        h_a, h_b = plane.h_a, plane.h_b
        plane_h.append(Homography(h_b @ np.linalg.inv(h_a)))
        vps_a.append((normalize_h(h_a @ [1, 0, 0]), normalize_h(h_a @ [0, 1, 0])))
        vps_b.append((normalize_h(h_b @ [1, 0, 0]), normalize_h(h_b @ [0, 1, 0])))

        plane_segs_a = _plane_segments(plane, h_a, rng, noise.segment_angle_noise)
        plane_segs_b = _plane_segments(plane, h_b, rng, noise.segment_angle_noise)
        segs_a.extend(plane_segs_a)
        segs_b.extend(plane_segs_b)

        w_ext, h_ext = plane.extent
        facade = np.array([[0, 0], [w_ext, 0], [w_ext, h_ext], [0, h_ext]], dtype=float)
        fa = _project(h_a, facade)
        fb = _project(h_b, facade)
        ext_a.append((float(fa[:, 0].min()), float(fa[:, 0].max())))
        ext_b.append((float(fb[:, 0].min()), float(fb[:, 0].max())))

        cpairs = []
        for quad in _window_world_corners(plane):
            pa = _project(h_a, quad)
            pb = _project(h_b, quad)
            cpairs.append(np.hstack([pa, pb]))

            boxes_a.append(_noisy_hull(pa, rng, noise.corner_sigma))
            boxes_b.append(_noisy_hull(pb, rng, noise.corner_sigma))
            box_pairs.append((len(boxes_a) - 1, len(boxes_b) - 1))
            box_plane_a.append(pid)
            box_plane_b.append(pid)
            window_proj.append((pa, pb))

        corner_pairs.append(np.vstack(cpairs))

        for wp in _feature_world_points(plane, spec.feature_mode):
            pa = _project(h_a, wp[None, :])[0]
            pb = _project(h_b, wp[None, :])[0]
            feats_world.append((pa, pb))
            if spec.uniform_descriptor:
                base_descs.append(shared_desc)
            elif codebook is not None:
                base_descs.append(codebook[len(base_descs) % spec.codebook])
            else:
                d = rng.standard_normal(spec.desc_dim)
                base_descs.append(d / np.linalg.norm(d))

    # Outlier segments: random positions and directions.
    for _ in range(noise.outlier_segments):
        mid = rng.uniform([0, 0], [spec.width, spec.height])
        ang = rng.uniform(0, np.pi)
        half = rng.uniform(15, 35) * np.array([np.cos(ang), np.sin(ang)])
        segs_a.append(LineSegment(mid - half, mid + half))
        mid = rng.uniform([0, 0], [spec.width, spec.height])
        ang = rng.uniform(0, np.pi)
        half = rng.uniform(15, 35) * np.array([np.cos(ang), np.sin(ang)])
        segs_b.append(LineSegment(mid - half, mid + half))

    if spec.with_rect_boxes:
        # Simulate a detector running on the pipeline-rectified images: the
        # rectified frames are the ones the pipeline itself reconstructs from
        # the segments, so backprojection inverts them exactly.
        for segs, projs, out in (
            (segs_a, [pa for pa, _ in window_proj], rect_a),
            (segs_b, [pb for _, pb in window_proj], rect_b),
        ):
            table = segment_arrays(segs)
            vps = image_vps(table, spec.width, spec.height, VpParams())
            rectifiers, intervals = build_plane_rectifiers(
                table, vps, spec.width, spec.height, VpParams()
            )
            for p in projs:
                cx = float(p[:, 0].mean())
                for facade_id, iv in enumerate(intervals):
                    if iv.lo <= cx < iv.hi and rectifiers[facade_id] is not None:
                        mapped = rectifiers[facade_id].H.map_points(p)
                        out.append(
                            (facade_id, _noisy_hull(mapped, rng, noise.corner_sigma))
                        )
                        break

    for b in _distractor_boxes(rng, "tl", noise.distractor_boxes, spec.width, spec.height):
        boxes_a.append(b)
        box_plane_a.append(-1)
    for b in _distractor_boxes(rng, "br", noise.distractor_boxes, spec.width, spec.height):
        boxes_b.append(b)
        box_plane_b.append(-1)

    feats_a: list[Feature] = []
    feats_b_raw: list[tuple[np.ndarray, np.ndarray]] = []
    n_feat = len(feats_world)
    destroyed = set()
    if noise.destroyed_frac > 0 and n_feat:
        k = int(round(noise.destroyed_frac * n_feat))
        destroyed = set(rng.choice(n_feat, size=k, replace=False).tolist())
    for idx, (pa, pb) in enumerate(feats_world):
        base = base_descs[idx]
        feats_a.append(Feature(id=idx, pos=pa, desc=base))
        if idx in destroyed:
            d = rng.standard_normal(spec.desc_dim)
        elif noise.desc_sigma > 0:
            d = base + rng.normal(0, noise.desc_sigma, spec.desc_dim)
        else:
            d = base.copy()
        feats_b_raw.append((pb, d / np.linalg.norm(d)))

    # Shuffle view-b features so ids carry no alignment information.
    perm = rng.permutation(n_feat)
    feats_b = [
        Feature(id=j, pos=feats_b_raw[int(src)][0], desc=feats_b_raw[int(src)][1])
        for j, src in enumerate(perm)
    ]
    feature_pairs = {int(src): j for j, src in enumerate(perm)}

    img_a = ImageInputs(
        width=spec.width, height=spec.height, segments=segs_a, boxes=boxes_a,
        features=feats_a, rect_boxes=rect_a,
    )
    img_b = ImageInputs(
        width=spec.width, height=spec.height, segments=segs_b, boxes=boxes_b,
        features=feats_b, rect_boxes=rect_b,
    )
    gt = GroundTruth(
        box_pairs=box_pairs,
        box_plane_a=box_plane_a,
        box_plane_b=box_plane_b,
        feature_pairs=feature_pairs,
        plane_homographies=plane_h,
        vps_a=vps_a,
        vps_b=vps_b,
        plane_x_extent_a=ext_a,
        plane_x_extent_b=ext_b,
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
    infinite = bool(_at_infinity(vp))
    for _ in range(n):
        mid = rng.uniform([x0, y0], [x1, y1])
        d = vp[:2] if infinite else vp[:2] / vp[2] - mid
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
