"""Acceptance gate: ten end-to-end criteria over synthetic scenes.

Each test prints a single PASS line when its criterion holds.  The designs
are property-based: scene geometry is randomized per seed and results are
checked against planted ground truth or independent oracles.
"""

import os
import time

import numpy as np

from objguide.boxes import adjust_box
from objguide.cli import main
from objguide.geom import (
    DetBox,
    Homography,
    LineSegment,
    QuadBox,
    canonical_quad_order,
    dlt_homography,
    normalize_h,
    quad_iou,
)
from objguide.guided import Match, MatchSet, additional_matches, match_pair, refine_homography
from objguide.io import (
    read_boxes,
    read_feature_pairs,
    read_features,
    read_groups,
    read_matches,
    read_quads,
    read_segments,
    write_boxes,
    write_feature_pairs,
    write_features,
    write_groups,
    write_matches,
    write_quads,
    write_segments,
)
from objguide.objmatch import EPS_IOU, Feature, ObjectGroup, feature_table, greedy_match
from objguide.rectify import (
    backproject_quad,
    build_plane_rectifiers,
    segment_columns,
)
from objguide.synth import (
    NoiseSpec,
    PlaneSpec,
    SceneSpec,
    brute_force_nn,
    generate,
    homography_rms,
    pencil_segments,
    raster_iou,
    score,
    slant_p,
    view_homography,
)
from objguide.vanishing import (
    HORIZONTAL,
    VERTICAL,
    VanishingPoint,
    VpParams,
    _residual_matrix,
    classify,
    estimate_vps,
    image_vps,
    segment_arrays,
)


def _passed(n, detail=""):
    print(f"[acceptance] criterion {n}: PASS {detail}".rstrip())


def _random_quad(rng, shift=None):
    """Convex quad: a random rectangle under a mild projective warp."""
    w, h = rng.uniform(40, 160, 2)
    x0, y0 = rng.uniform(200, 400, 2) + (shift if shift is not None else 0.0)
    hview = view_homography(
        scale=rng.uniform(0.8, 1.2),
        tx=rng.uniform(-30, 30),
        ty=rng.uniform(-30, 30),
        p=rng.uniform(-3e-4, 3e-4),
        q=rng.uniform(-3e-4, 3e-4),
    )
    corners = np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
    ch = np.column_stack([corners, np.ones(4)]) @ hview.T
    return QuadBox(canonical_quad_order(ch[:, :2] / ch[:, 2:3]))


def test_criterion_1_geometry_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        a = _random_quad(rng)
        b = _random_quad(rng, shift=rng.uniform(-80, 80, 2))
        worst = max(worst, abs(quad_iou(a, b) - raster_iou(a, b, 1000)))
    assert worst < 0.01

    worst_px = 0.0
    for _ in range(500):
        src = (
            np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float) * rng.uniform(50, 300)
            + rng.uniform(-200, 200, 2)
            + rng.normal(0, 20, (4, 2))
        )
        htrue = view_homography(
            scale=rng.uniform(0.5, 2.0),
            tx=rng.uniform(-100, 100),
            ty=rng.uniform(-100, 100),
            p=rng.uniform(-5e-4, 5e-4),
            q=rng.uniform(-5e-4, 5e-4),
        )
        sh = np.column_stack([src, np.ones(4)]) @ htrue.T
        dst = sh[:, :2] / sh[:, 2:3]
        est = dlt_homography(src, dst)
        worst_px = max(worst_px, float(np.abs(est.map_points(src) - dst).max()))
    assert worst_px < 1e-6
    _passed(1, f"(iou diff {worst:.4f}, dlt {worst_px:.1e} px)")


def test_criterion_2_vp_recovery():
    worst_res, worst_t = 0.0, 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        vp_h = np.array(
            [rng.choice([-1.0, 1.0]) * rng.uniform(2500, 6000), rng.uniform(300, 600), 1.0]
        )
        vp_v = np.array(
            [rng.uniform(400, 900), rng.choice([-1.0, 1.0]) * rng.uniform(9000, 25000), 1.0]
        )
        segs_h = pencil_segments(vp_h, 40, rng, noise_deg=0.2)
        segs_v = pencil_segments(vp_v, 40, rng, noise_deg=0.2)
        outliers = []
        for _ in range(24):  # 30% of the 80 inliers
            mid = rng.uniform([0, 0], [1280, 960])
            ang = rng.uniform(0, np.pi)
            d = rng.uniform(15, 40) * np.array([np.cos(ang), np.sin(ang)])
            outliers.append(LineSegment(mid - d, mid + d))
        t0 = time.perf_counter()
        vps = classify(
            estimate_vps(
                segment_arrays(segs_h + segs_v + outliers),
                VpParams(rng_seed=seed, angle_thresh=1.0),
            ),
            center=(640, 480),
        )
        worst_t = max(worst_t, time.perf_counter() - t0)
        for true_segs, orientation in ((segs_h, HORIZONTAL), (segs_v, VERTICAL)):
            _, _, dirs, mids, _ = segment_arrays(true_segs)
            worst = _residual_matrix(np.array([vp.point for vp in vps]), dirs, mids).max(axis=1)
            k = int(np.argmin(worst))  # the first of equal minima
            best = vps[k]
            res = float(worst[k])
            worst_res = max(worst_res, res)
            assert res <= 0.5
            assert best.orientation == orientation
    assert worst_t < 1.0
    _passed(2, f"(worst residual {worst_res:.3f} deg, worst time {worst_t:.3f} s)")


def test_criterion_3_box_adjustment():
    from objguide.synth import _plant_view

    errs = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        h = view_homography(
            scale=rng.uniform(0.9, 1.1),
            tx=rng.uniform(250, 450),
            ty=rng.uniform(150, 300),
            p=rng.choice([-1.0, 1.0]) * slant_p(rng.uniform(5, 30), 330),
        )
        plane = PlaneSpec(h_a=h, h_b=h)
        vp_h, vp_v = h @ [1, 0, 0], h @ [0, 1, 0]
        scene_err = 0.0
        for true in _plant_view(plane, h, None)[1]:
            lo, hi = true.min(axis=0), true.max(axis=0)
            [q] = adjust_box([DetBox(lo[0], lo[1], hi[0], hi[1])], vp_h, vp_v)
            scene_err = max(scene_err, float(np.abs(q.corners - true).max()))
        errs.append(scene_err)
    assert np.median(errs) < 2.0

    box = DetBox(100, 200, 160, 290, 0.7)
    [q] = adjust_box([box], np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))
    assert np.array_equal(q.corners, box.corners)
    _passed(3, f"(median error {np.median(errs):.3f} px)")


def test_criterion_4_rectifier_contract():
    planes = [
        PlaneSpec(
            h_a=view_homography(scale=1.0, tx=400, ty=250, p=slant_p(18, 330)),
            h_b=view_homography(scale=1.0, tx=420, ty=260, p=slant_p(24, 330)),
            rows=3,
            cols=4,
        )
    ]
    worst_w, worst_clean, worst_noisy = 0.0, 0.0, 0.0
    for seed in range(5):
        scene = generate(SceneSpec(seed=seed, planes=planes))
        rng = np.random.default_rng(100 + seed)
        for noisy in (False, True):
            segs = scene.img_a.segments
            if noisy:
                segs = [
                    LineSegment(s.p + rng.normal(0, 1, 2), s.q + rng.normal(0, 1, 2))
                    for s in segs
                ]
            table = segment_arrays(segs)
            vps = image_vps(table, 1280, 960, VpParams())
            rectifiers, _ = build_plane_rectifiers(table, vps, 1280, 960, VpParams())
            r = rectifiers[0]
            assert r is not None
            for vp in (r.vp_h, r.vp_v):
                u = np.asarray(vp, float)
                u = u / np.linalg.norm(u)
                w = r.H.m @ u
                w = w / np.linalg.norm(w)
                worst_w = max(worst_w, abs(float(w[2])))
            pairs = scene.gt.corner_pairs[0]
            for k in range(len(pairs) // 4):
                pa = pairs[4 * k : 4 * k + 4, :2]
                rect = r.H.map_points(pa)
                lo, hi = rect.min(axis=0), rect.max(axis=0)
                q = backproject_quad(DetBox(lo[0], lo[1], hi[0], hi[1]), r)
                err = float(np.abs(q.corners - canonical_quad_order(pa)).max())
                if noisy:
                    worst_noisy = max(worst_noisy, err)
                else:
                    worst_clean = max(worst_clean, err)
    assert worst_w < 1e-9
    assert worst_clean < 1e-6
    assert worst_noisy < 1.0
    _passed(4, f"(vp third {worst_w:.1e}, round trip {worst_clean:.1e} / {worst_noisy:.3f} px)")


def test_criterion_5_plane_segmentation():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g0 = int(rng.integers(300, 700))  # 40-column unlabeled gap [g0, g0+40)
        vp_l = np.array([rng.uniform(3000, 6000), rng.uniform(300, 600), 1.0])
        vp_r = np.array([-rng.uniform(2500, 5500), rng.uniform(300, 600), 1.0])
        segs = pencil_segments(vp_l, 60, rng, region=(0, 100, g0, 860))
        segs += pencil_segments(vp_r, 60, rng, region=(g0 + 40, 100, 1000, 860))
        vps = [
            VanishingPoint(normalize_h(vp_l), tuple(range(60)), HORIZONTAL),
            VanishingPoint(normalize_h(vp_r), tuple(range(60, 120)), HORIZONTAL),
        ]
        out = segment_columns(segment_arrays(segs), vps, 1000)
        assert [iv.plane_id for iv in out] == [0, 1]
        assert out[0].lo == 0 and out[-1].hi == 1000
        assert g0 <= out[0].hi <= g0 + 40
    _passed(5, "(boundary in gap, labels correct, 100/100 seeds)")


def _two_plane_spec(seed):
    """Two facades with distinct layouts, randomized geometry and noise."""
    rng = np.random.default_rng(1000 + seed)

    def hpair(tx_a, sign):
        return (
            view_homography(
                scale=rng.uniform(0.9, 1.1),
                tx=tx_a,
                ty=rng.uniform(230, 290),
                p=sign * slant_p(rng.uniform(5, 28), 330),
            ),
            view_homography(
                scale=rng.uniform(0.9, 1.1),
                tx=tx_a + rng.uniform(-40, 40),
                ty=rng.uniform(230, 290),
                p=sign * slant_p(rng.uniform(5, 28), 330),
            ),
        )

    h0a, h0b = hpair(rng.uniform(60, 140), 1.0)
    h1a, h1b = hpair(rng.uniform(700, 820), -1.0)
    planes = [
        PlaneSpec(
            h_a=h0a, h_b=h0b, pitch_x=130.0, pitch_y=130.0,
            win_sizes=[(44.0, 92.0), (92.0, 44.0)],
        ),
        PlaneSpec(
            h_a=h1a, h_b=h1b, pitch_x=150.0, pitch_y=145.0,
            win_sizes=[(70.0, 56.0), (48.0, 104.0)],
        ),
    ]
    noise = NoiseSpec(
        corner_sigma=rng.uniform(0.5, 2.0), desc_sigma=0.2, distractor_boxes=2
    )
    return SceneSpec(seed=seed, planes=planes, noise=noise)


def test_criterion_6_greedy_object_matching():
    recalls, distractor_hits = [], 0
    for seed in range(100):
        scene = generate(_two_plane_spec(seed))
        b1 = [QuadBox.from_detbox(b) for b in scene.img_a.boxes]
        b2 = [QuadBox.from_detbox(b) for b in scene.img_b.boxes]
        c1, c2 = np.array([q.corners for q in b1]), np.array([q.corners for q in b2])
        groups = greedy_match(
            c1, c2, feature_table(scene.img_a.features), feature_table(scene.img_b.features)
        )
        seen1, seen2 = set(), set()
        for g in groups:
            assert len(g.pairs) >= 2
            assert g.pairs == sorted(g.pairs)
            for i, j in g.pairs:
                assert i not in seen1 and j not in seen2
                seen1.add(i)
                seen2.add(j)
                proj = QuadBox(canonical_quad_order(g.H.map_points(b1[i].corners)))
                assert quad_iou(proj, b2[j]) >= EPS_IOU
                if scene.gt.box_plane_a[i] == -1 or scene.gt.box_plane_b[j] == -1:
                    distractor_hits += 1
        found = {p for g in groups for p in g.pairs}
        true = set(scene.gt.box_pairs)
        recalls.append(len(found & true) / len(true))
    assert np.mean(recalls) >= 0.9
    assert distractor_hits == 0
    _passed(6, f"(mean recall {np.mean(recalls):.3f}, distractor inclusions 0)")


def test_criterion_7_guided_vs_unguided():
    # Repeated texture: 25 windows sharing one descriptor, pitch 110 px,
    # more than twice the 20 px search radius.
    planes = [
        PlaneSpec(
            h_a=view_homography(scale=1.0, tx=300, ty=180),
            h_b=view_homography(scale=1.0, tx=330, ty=200),
            rows=5, cols=5, win_w=60.0, win_h=60.0, pitch_x=110.0, pitch_y=110.0,
        )
    ]
    scene = generate(
        SceneSpec(seed=0, planes=planes, feature_mode="center", uniform_descriptor=True)
    )
    ms, _ = match_pair(scene.img_a, scene.img_b)
    guided = [m for m in ms.matches if m.group_id >= 0]
    rep = score(guided, scene.img_b.features, scene.gt)
    assert rep.precision == 1.0 and rep.recall == 1.0
    nn = brute_force_nn(scene.img_a.features, scene.img_b.features)
    nn_acc = score(nn, scene.img_b.features, scene.gt).recall
    assert nn_acc <= 0.1

    # Noisy day/night: a small descriptor codebook plus sigma 0.8 drives the
    # mutual-NN baseline below 0.5 precision; guided matching stays >= 0.9.
    night = [
        PlaneSpec(
            h_a=view_homography(scale=1.0, tx=400, ty=250, p=slant_p(15, 330)),
            h_b=view_homography(scale=1.05, tx=430, ty=270, p=slant_p(25, 330)),
            rows=3, cols=4,
        )
    ]
    guided_ps = []
    for seed in range(5):
        scene = generate(
            SceneSpec(
                seed=seed,
                planes=night,
                noise=NoiseSpec(corner_sigma=1.0, desc_sigma=0.8, outlier_segments=10),
                codebook=6,
            )
        )
        mutual = additional_matches(
            feature_table(scene.img_a.features), feature_table(scene.img_b.features), ratio=1.0
        )
        assert score(mutual, scene.img_b.features, scene.gt).precision < 0.5
        ms, _ = match_pair(scene.img_a, scene.img_b)
        guided = [m for m in ms.matches if m.group_id >= 0]
        guided_ps.append(score(guided, scene.img_b.features, scene.gt).precision)
        assert guided_ps[-1] >= 0.9
    _passed(7, f"(repeated-texture P=R=1.0, nn acc {nn_acc:.2f}; night P {min(guided_ps):.2f})")


def test_criterion_8_refinement_monotonicity():
    planes = [
        PlaneSpec(
            h_a=view_homography(scale=1.0, tx=400, ty=250, p=slant_p(15, 330)),
            h_b=view_homography(scale=1.05, tx=430, ty=270, p=slant_p(25, 330)),
            rows=3, cols=4,
        )
    ]
    init, refined = [], []
    for seed in range(100):
        scene = generate(
            SceneSpec(
                seed=seed,
                planes=planes,
                noise=NoiseSpec(corner_sigma=1.5, desc_sigma=0.3, outlier_segments=10),
            )
        )
        b1 = [QuadBox.from_detbox(b) for b in scene.img_a.boxes]
        b2 = [QuadBox.from_detbox(b) for b in scene.img_b.boxes]
        c1, c2 = np.array([q.corners for q in b1]), np.array([q.corners for q in b2])
        groups = greedy_match(
            c1, c2, feature_table(scene.img_a.features), feature_table(scene.img_b.features)
        )
        assert groups
        g = groups[0]
        before = homography_rms(g.H, 0, scene.gt)
        refine_homography(g, c1, c2, [], [])
        after = homography_rms(g.H, 0, scene.gt)
        init.append(before)
        refined.append(after)
        assert after <= before * 1.05
    assert np.mean(refined) <= np.mean(init)
    _passed(8, f"(mean rms {np.mean(init):.2f} -> {np.mean(refined):.2f} px)")


def test_criterion_9_determinism_and_formats(tmp_path):
    rng = np.random.default_rng(3)

    segs = [LineSegment(rng.uniform(0, 900, 2), rng.uniform(0, 900, 2)) for _ in range(10)]
    write_segments(str(tmp_path / "s.txt"), segs)
    for s, t in zip(segs, read_segments(str(tmp_path / "s.txt"))):
        assert np.array_equal(s.p, t.p) and np.array_equal(s.q, t.q)

    boxes = [DetBox(1.25, 2.5, 77.125, 99.0, 0.123456789)]
    write_boxes(str(tmp_path / "b.txt"), boxes)
    got = read_boxes(str(tmp_path / "b.txt"))[0]
    assert (got.xmin, got.ymin, got.xmax, got.ymax, got.score) == (
        boxes[0].xmin, boxes[0].ymin, boxes[0].xmax, boxes[0].ymax, boxes[0].score
    )

    quads = [(QuadBox.from_detbox(DetBox(0, 0, 10.5, 7.25, 0.5)), "rect:1")]
    write_quads(str(tmp_path / "q.txt"), quads)
    q, tag = read_quads(str(tmp_path / "q.txt"))[0]
    assert tag == "rect:1" and np.array_equal(q.corners, quads[0][0].corners)

    desc = rng.standard_normal(16)
    desc /= np.linalg.norm(desc)
    feats = [Feature(id=0, pos=np.array([3.5, 4.5]), desc=desc)]
    write_features(str(tmp_path / "f.txt"), feats)
    got = read_features(str(tmp_path / "f.txt"))[0]
    assert np.array_equal(got.pos, feats[0].pos) and np.array_equal(got.desc, feats[0].desc)

    ms = MatchSet([Match(0, 3, 0.987654321012345, 1), Match(2, 1, -0.25, -1)], [])
    write_matches(str(tmp_path / "m.txt"), ms)
    assert [(m.i, m.j, m.sim, m.group_id) for m in read_matches(str(tmp_path / "m.txt"))] == [
        (m.i, m.j, m.sim, m.group_id) for m in ms.matches
    ]

    h = Homography(np.eye(3) + 0.01 * np.arange(9).reshape(3, 3))
    groups = [ObjectGroup(H=h, pairs=[(0, 1), (2, 0)])]
    write_groups(str(tmp_path / "g.txt"), groups)
    got = read_groups(str(tmp_path / "g.txt"))[0]
    assert got.pairs == groups[0].pairs and np.array_equal(got.H.m, h.m)

    write_feature_pairs(str(tmp_path / "p.txt"), {0: 4, 1: 2})
    assert read_feature_pairs(str(tmp_path / "p.txt")) == {0: 4, 1: 2}

    # Bit-identical CLI outputs: fixed seed across runs, serial vs parallel.
    scenes = []
    for seed in (0, 1):
        out = str(tmp_path / f"scene{seed}")
        assert main(["synth", "--out", out, "--preset", "single", "--seed", str(seed)]) == 0
        scenes.append(out)
    blobs = []
    for tag in ("r1", "r2"):
        out = str(tmp_path / tag)
        assert main(["match", "--dir1", f"{scenes[0]}/a", "--dir2", f"{scenes[0]}/b",
                     "--out", out]) == 0
        with open(f"{out}/matches.txt", "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]

    results = {}
    for jobs, tag in ((1, "serial"), (4, "parallel")):
        pairs = tmp_path / f"pairs_{tag}.txt"
        pairs.write_text(
            "".join(f"{s}/a {s}/b {tmp_path}/{tag}_{k}\n" for k, s in enumerate(scenes))
        )
        assert main(["match", "--pairs-file", str(pairs), "--jobs", str(jobs)]) == 0
        batch = []
        for k in range(len(scenes)):
            with open(f"{tmp_path}/{tag}_{k}/matches.txt", "rb") as fh:
                batch.append(fh.read())
        results[tag] = batch
    assert results["serial"] == results["parallel"]
    _passed(9, "(round trips exact, fixed-seed and serial/parallel bit-identical)")


def _ablation_spec(seed):
    """Two facades, the right one heavily slanted, distinct inter-view maps."""
    rng = np.random.default_rng(5000 + seed)
    layouts = [
        dict(pitch_x=130.0, pitch_y=130.0, win_sizes=[(44.0, 92.0), (92.0, 44.0)]),
        dict(pitch_x=150.0, pitch_y=145.0, win_sizes=[(70.0, 56.0), (48.0, 104.0)]),
    ]
    p0a = slant_p(rng.uniform(24, 30), 390)
    p0b = slant_p(rng.uniform(26, 34), 390)
    p1a = -slant_p(rng.uniform(38, 45), 450)
    p1b = -slant_p(rng.uniform(28, 36), 450)
    planes = [
        PlaneSpec(
            h_a=view_homography(scale=1.0, tx=60, ty=250, p=p0a),
            h_b=view_homography(scale=1.1, tx=85, ty=215, p=p0b),
            **layouts[0],
        ),
        PlaneSpec(
            h_a=view_homography(scale=1.0, tx=760, ty=240, p=p1a),
            h_b=view_homography(scale=0.9, tx=735, ty=290, p=p1b),
            **layouts[1],
        ),
    ]
    return SceneSpec(
        seed=seed,
        planes=planes,
        noise=NoiseSpec(corner_sigma=1.0, desc_sigma=0.3, outlier_segments=10),
        with_rect_boxes=True,
    )


def test_criterion_10_mode_ablation():
    for seed in range(12):
        scene = generate(_ablation_spec(seed))
        result = {}
        for mode in ("O", "(O+R)A"):
            ms, _ = match_pair(scene.img_a, scene.img_b, mode=mode)
            guided = [m for m in ms.matches if m.group_id >= 0]
            recall = score(guided, scene.img_b.features, scene.gt).recall
            result[mode] = (len(ms.groups), recall)
        assert result["(O+R)A"][0] >= result["O"][0]
        assert result["(O+R)A"][1] >= result["O"][1]
    _passed(10, "((O+R)A >= O in groups and guided recall on 12/12 seeds)")
