"""Scenes of the benchmark workloads, built on ``objguide.synth``.

Each workload runs a fixed pool of scenes: scene k of a pool is synth's
scene for seed k.  The run seed relabels the features of every image (the
ground truth follows) and orders the pairs.  The pool is fixed because the
pipeline's grouping outcome is bimodal in a scene's noise draw, so scenes
drawn from the run seed made precision, recall and pair time swing by
15-30% between runs, more than any usable regression bound.  README.md
lists the parameters of each pool.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from objguide import synth
from objguide.objmatch import Feature
from objguide.synth import NoiseSpec, PlaneSpec, Scene, SceneSpec, slant_p, view_homography

def city_block(seed: int) -> SceneSpec:
    """Two wide facades of repeated windows: grouping cost dominates."""
    scale = 0.62
    planes = [
        PlaneSpec(
            h_a=view_homography(scale, 40, 230, slant_p(10, 880)),
            h_b=view_homography(scale, 20, 250, slant_p(20, 880)),
            rows=5, cols=8,
        ),
        PlaneSpec(
            h_a=view_homography(scale, 720, 230, -slant_p(25, 660)),
            h_b=view_homography(scale * 0.95, 750, 240, -slant_p(12, 660)),
            rows=5, cols=6,
        ),
    ]
    noise = NoiseSpec(corner_sigma=1.0, desc_sigma=0.3, outlier_segments=30,
                      distractor_boxes=2)
    return SceneSpec(seed=seed, planes=planes, noise=noise, with_rect_boxes=True)


def two_facade(seed: int, rng: np.random.Generator | None = None) -> SceneSpec:
    """The CLI's two-facade preset; with rng, placement and slant are jittered."""
    jit = (lambda lo, hi: rng.uniform(lo, hi)) if rng is not None else (lambda lo, hi: 0.0)
    planes = [
        PlaneSpec(
            h_a=view_homography(1.0, 80 + jit(-40, 40), 250 + jit(-60, 60),
                                slant_p(10 + jit(-5, 10), 330)),
            h_b=view_homography(1.0, 60 + jit(-40, 40), 270 + jit(-60, 60),
                                slant_p(20 + jit(-5, 10), 330)),
        ),
        PlaneSpec(
            h_a=view_homography(1.0, 760 + jit(-40, 40), 250 + jit(-60, 60),
                                -slant_p(25 + jit(-10, 5), 330)),
            h_b=view_homography(0.95, 790 + jit(-40, 40), 260 + jit(-60, 60),
                                -slant_p(12 + jit(-5, 10), 330)),
        ),
    ]
    noise = NoiseSpec(corner_sigma=1.0, desc_sigma=0.3, outlier_segments=10,
                      distractor_boxes=2)
    return SceneSpec(seed=seed, planes=planes, noise=noise, with_rect_boxes=True)


TEXTURE_PER_PLANE = 560
CLUTTER_PER_IMAGE = 320
TEXTURE_DESC_SIGMA = 0.1


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    d = rng.standard_normal((n, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _project(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    ph = np.column_stack([pts, np.ones(len(pts))]) @ h.T
    return ph[:, :2] / ph[:, 2:3]


def relabel_features(scene: Scene, rng: np.random.Generator) -> Scene:
    """Give the features of both views new ids; the ground truth follows.

    Ids must be 0..n-1, as synth and the feature file format number them.
    """
    def relabel(img):
        new_id = rng.permutation(len(img.features))
        feats = sorted(
            (Feature(id=int(new_id[f.id]), pos=f.pos, desc=f.desc) for f in img.features),
            key=lambda f: f.id,
        )
        return dataclasses.replace(img, features=feats), new_id

    img_a, id_a = relabel(scene.img_a)
    img_b, id_b = relabel(scene.img_b)
    pairs = {int(id_a[i]): int(id_b[j]) for i, j in scene.gt.feature_pairs.items()}
    return Scene(img_a=img_a, img_b=img_b, gt=dataclasses.replace(scene.gt, feature_pairs=pairs))


def dense_features(seed: int) -> Scene:
    """Two-facade scene plus planted wall texture and unpartnered clutter.

    Texture points are drawn on each facade plane and projected through the
    plane's ``h_a`` / ``h_b``; they join the ground truth.  Clutter features
    are drawn per image with no partner.  View-b ids are shuffled so that
    they carry no alignment information.
    """
    spec = two_facade(seed)
    scene = synth.generate(spec)
    rng = np.random.default_rng([seed, 1])
    dim = spec.desc_dim
    w, h = spec.width, spec.height

    pos_a, pos_b, desc_a, desc_b = [], [], [], []
    for plane in spec.planes:
        w_ext, h_ext = plane.extent
        world = rng.uniform([0.0, 0.0], [w_ext, h_ext], size=(TEXTURE_PER_PLANE, 2))
        pos_a.append(_project(plane.h_a, world))
        pos_b.append(_project(plane.h_b, world))
        base = _unit_rows(rng, TEXTURE_PER_PLANE, dim)
        noisy = base + rng.normal(0.0, TEXTURE_DESC_SIGMA, base.shape)
        desc_a.append(base)
        desc_b.append(noisy / np.linalg.norm(noisy, axis=1, keepdims=True))
    tex_a, tex_b = np.vstack(pos_a), np.vstack(pos_b)
    tex_da, tex_db = np.vstack(desc_a), np.vstack(desc_b)
    n_tex = len(tex_a)

    def clutter():
        return (rng.uniform([0.0, 0.0], [w, h], size=(CLUTTER_PER_IMAGE, 2)),
                _unit_rows(rng, CLUTTER_PER_IMAGE, dim))

    clut_a, clut_da = clutter()
    clut_b, clut_db = clutter()

    feats_a = list(scene.img_a.features)
    base_a = len(feats_a)
    for k, (p, d) in enumerate(zip(np.vstack([tex_a, clut_a]), np.vstack([tex_da, clut_da]))):
        feats_a.append(Feature(id=base_a + k, pos=p, desc=d))

    feats_b = list(scene.img_b.features)
    base_b = len(feats_b)
    new_b_pos = np.vstack([tex_b, clut_b])
    new_b_desc = np.vstack([tex_db, clut_db])
    perm = rng.permutation(len(new_b_pos))
    for j, src in enumerate(perm):
        feats_b.append(Feature(id=base_b + j, pos=new_b_pos[src], desc=new_b_desc[src]))

    pairs = dict(scene.gt.feature_pairs)
    for j, src in enumerate(perm):
        if src < n_tex:
            pairs[base_a + int(src)] = base_b + j

    return Scene(
        img_a=dataclasses.replace(scene.img_a, features=feats_a),
        img_b=dataclasses.replace(scene.img_b, features=feats_b),
        gt=dataclasses.replace(scene.gt, feature_pairs=pairs),
    )
