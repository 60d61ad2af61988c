import os

import numpy as np
import pytest

from objguide import cli
from objguide import io as formats
from objguide.cli import EXIT_DIMENSION, EXIT_PARSE, main
from objguide.geom import DetBox, Homography, LineSegment, QuadBox
from objguide.guided import Match, MatchSet, match_pair
from objguide.objmatch import Feature, ObjectGroup
from objguide.rectify import ColumnInterval, Rectifier, build_plane_rectifiers
from objguide.synth import NoiseSpec, PlaneSpec, SceneSpec, generate, slant_p, view_homography
from objguide.vanishing import HORIZONTAL, VanishingPoint, VpParams, image_vps, segment_arrays


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


class TestRoundTrips:
    def test_segments_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        segs = [LineSegment(rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)) for _ in range(20)]
        path = str(tmp_path / "segments.txt")
        formats.write_segments(path, segs)
        back = formats.read_segments(path)
        for s, t in zip(segs, back):
            assert np.array_equal(s.p, t.p) and np.array_equal(s.q, t.q)

    def test_segments_min_len_filter(self, tmp_path):
        segs = [LineSegment((0, 0), (5, 0)), LineSegment((0, 0), (50, 0))]
        path = str(tmp_path / "segments.txt")
        formats.write_segments(path, segs)
        assert len(formats.read_segments(path, min_len=20.0)) == 1

    def test_boxes_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        boxes = []
        for _ in range(15):
            x0, y0 = rng.uniform(0, 500, 2)
            boxes.append(DetBox(x0, y0, x0 + rng.uniform(5, 80), y0 + rng.uniform(5, 80),
                                float(rng.uniform(0, 1))))
        path = str(tmp_path / "boxes.txt")
        formats.write_boxes(path, boxes)
        back = formats.read_boxes(path)
        for b, c in zip(boxes, back):
            assert (b.xmin, b.ymin, b.xmax, b.ymax, b.score) == (
                c.xmin, c.ymin, c.xmax, c.ymax, c.score)

    def test_quads_exact_with_tags(self, tmp_path):
        quads = [
            (QuadBox.from_detbox(DetBox(0, 0, 10.25, 7.5, 0.5)), "original"),
            (QuadBox.from_detbox(DetBox(3, 3, 9, 9, 0.25)), "rect:2"),
        ]
        path = str(tmp_path / "quads.txt")
        formats.write_quads(path, quads)
        back = formats.read_quads(path)
        for (q, tag), (r, tag2) in zip(quads, back):
            assert tag == tag2
            assert np.array_equal(q.corners, r.corners)
            assert q.score == r.score

    def test_features_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        feats = [
            Feature(id=k, pos=rng.uniform(0, 1000, 2), desc=_unit(rng.standard_normal(16)))
            for k in range(10)
        ]
        path = str(tmp_path / "features.txt")
        formats.write_features(path, feats)
        back = formats.read_features(path)
        for f, g in zip(feats, back):
            assert f.id == g.id
            assert np.array_equal(f.pos, g.pos)
            assert np.array_equal(f.desc, g.desc)

    def test_features_ids_not_a_row_range_rejected(self, tmp_path):
        # read_features numbers features by row, so ids 5 and 9 would read
        # back as 0 and 1 and break any ground truth that names them.
        feats = [Feature(id=k, pos=[0.0, float(k)], desc=[1.0, 0.0]) for k in (5, 9)]
        path = tmp_path / "features.txt"
        with pytest.raises(ValueError, match="0..n-1"):
            formats.write_features(str(path), feats)
        assert not path.exists()

    def test_matches_exact(self, tmp_path):
        ms = MatchSet([Match(0, 3, 0.123456789012345, 0), Match(2, 1, -0.5, -1)], [])
        path = str(tmp_path / "matches.txt")
        formats.write_matches(path, ms)
        back = formats.read_matches(path)
        assert [(m.i, m.j, m.sim, m.group_id) for m in back] == [
            (m.i, m.j, m.sim, m.group_id) for m in ms.matches
        ]

    def test_groups_exact(self, tmp_path):
        h = Homography(np.eye(3) + 0.01 * np.arange(9).reshape(3, 3))
        groups = [
            ObjectGroup(H=h, pairs=[(0, 1), (2, 0)], refined=True),
            ObjectGroup(H=h, pairs=[(3, 3)]),
        ]
        path = str(tmp_path / "groups.txt")
        formats.write_groups(path, groups)
        back = formats.read_groups(path)
        assert len(back) == len(groups)
        for g, r in zip(groups, back):
            assert g.pairs == r.pairs
            assert np.array_equal(g.H.m, r.H.m)
            assert g.refined == r.refined

    def test_feature_pairs_exact(self, tmp_path):
        pairs = {0: 4, 1: 2, 3: 0}
        path = str(tmp_path / "gt.txt")
        formats.write_feature_pairs(path, pairs)
        assert formats.read_feature_pairs(path) == pairs

    def test_image_dir_round_trip(self, tmp_path):
        scene = generate(SceneSpec(
            seed=0,
            planes=[PlaneSpec(
                h_a=view_homography(scale=1.0, tx=400, ty=250, p=slant_p(15, 330)),
                h_b=view_homography(scale=1.0, tx=420, ty=260, p=slant_p(20, 330)),
            )],
            with_rect_boxes=True,
        ))
        d = str(tmp_path / "a")
        formats.write_image_dir(d, scene.img_a)
        back = formats.read_image_dir(d)
        assert (back.width, back.height) == (scene.img_a.width, scene.img_a.height)
        assert len(back.segments) == len(scene.img_a.segments)
        assert len(back.boxes) == len(scene.img_a.boxes)
        assert len(back.features) == len(scene.img_a.features)
        assert len(back.rect_boxes) == len(scene.img_a.rect_boxes)
        for (p1, b1), (p2, b2) in zip(scene.img_a.rect_boxes, back.rect_boxes):
            assert p1 == p2
            assert (b1.xmin, b1.ymin, b1.xmax, b1.ymax) == (b2.xmin, b2.ymin, b2.xmax, b2.ymax)


class TestParseErrors:
    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "segments.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(formats.ParseError) as exc:
            formats.read_segments(str(path))
        assert exc.value.line_no == 1

    def test_bad_float(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_text("0 0 1 1 0.5\n0 0 1 x 0.5\n")
        with pytest.raises(formats.ParseError) as exc:
            formats.read_boxes(str(path))
        assert exc.value.line_no == 2

    def test_missing_feature_header(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text("1.0 2.0 0.5 0.5\n")
        with pytest.raises(formats.ParseError):
            formats.read_features(str(path))

    def test_bad_quad_tag(self, tmp_path):
        path = tmp_path / "quads.txt"
        path.write_text("0 0 1 0 1 1 0 1 0.5 nonsense\n")
        with pytest.raises(formats.ParseError):
            formats.read_quads(str(path))

    def test_bad_plane_index(self, tmp_path):
        path = tmp_path / "quads.txt"
        path.write_text("0 0 1 0 1 1 0 1 0.5 rect:0\n0 0 1 0 1 1 0 1 0.5 rect:x\n")
        with pytest.raises(formats.ParseError) as exc:
            formats.read_quads(str(path))
        assert exc.value.line_no == 2

    def test_bad_group_pair(self, tmp_path):
        path = tmp_path / "groups.txt"
        h = " ".join(["1", "0", "0", "0", "1", "0", "0", "0", "1"])
        path.write_text(f"0 {h} 2 0\n0 0\na b\n")
        with pytest.raises(formats.ParseError) as exc:
            formats.read_groups(str(path))
        assert exc.value.line_no == 3

    def test_bad_dims(self, tmp_path):
        scene = _write_scene(tmp_path)
        with open(f"{scene}/a/dims.txt", "w") as fh:
            fh.write("abc 960\n")
        with pytest.raises(formats.ParseError) as exc:
            formats.read_image_dir(f"{scene}/a")
        assert exc.value.path.endswith("dims.txt") and exc.value.line_no == 1

    @pytest.mark.parametrize("text", ["0 960\n", "-1280 960\n", "1280 0\n"])
    def test_non_positive_dims(self, tmp_path, text):
        scene = _write_scene(tmp_path)
        with open(f"{scene}/a/dims.txt", "w") as fh:
            fh.write(text)
        with pytest.raises(formats.ParseError, match="must be >= 1") as exc:
            formats.read_image_dir(f"{scene}/a")
        assert exc.value.path.endswith("dims.txt") and exc.value.line_no == 1

    def test_truncated_group(self, tmp_path):
        path = tmp_path / "groups.txt"
        h = " ".join(["1", "0", "0", "0", "1", "0", "0", "0", "1"])
        path.write_text(f"0 {h} 2 0\n0 0\n")
        with pytest.raises(formats.ParseError, match="truncated group record"):
            formats.read_groups(str(path))

    @pytest.mark.parametrize("name,line", [
        ("segments.txt", "0 0 inf 5"),
        ("segments.txt", "0 nan 5 5"),
        ("boxes.txt", "0 0 inf 5 0.5"),
        ("boxes.txt", "-inf 0 1 5 0.5"),
    ])
    def test_non_finite_value(self, tmp_path, name, line):
        path = tmp_path / name
        good = "0 0 10 5" if name == "segments.txt" else "0 0 10 5 0.5"
        path.write_text(f"{good}\n{line}\n")
        read = formats.read_segments if name == "segments.txt" else formats.read_boxes
        with pytest.raises(formats.ParseError, match="non-finite") as exc:
            read(str(path))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("line", ["inf 2 0.6 0.8", "1 nan 0.6 0.8", "1 2 nan 0.8"])
    def test_non_finite_feature(self, tmp_path, line):
        path = tmp_path / "features.txt"
        path.write_text(f"D 2\n1 2 0.6 0.8\n{line}\n")
        with pytest.raises(formats.ParseError, match="non-finite") as exc:
            formats.read_features(str(path))
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("h", ["0 0 0 0 0 0 0 0 0", "1 0 0 0 1 0 0 0 0"])
    def test_zero_or_singular_group_homography(self, tmp_path, h):
        path = tmp_path / "groups.txt"
        eye = " ".join(["1", "0", "0", "0", "1", "0", "0", "0", "1"])
        path.write_text(f"0 {eye} 1 0\n0 0\n1 {h} 1 0\n1 1\n")
        with pytest.raises(formats.ParseError, match="homography matrix") as exc:
            formats.read_groups(str(path))
        assert exc.value.line_no == 3

    def test_negative_pair_count(self, tmp_path):
        path = tmp_path / "groups.txt"
        h = " ".join(["1", "0", "0", "0", "1", "0", "0", "0", "1"])
        path.write_text(f"0 {h} -1 0\n")
        with pytest.raises(formats.ParseError, match="negative pair count") as exc:
            formats.read_groups(str(path))
        assert exc.value.line_no == 1

    def test_bad_refined_flag(self, tmp_path):
        path = tmp_path / "groups.txt"
        h = " ".join(["1", "0", "0", "0", "1", "0", "0", "0", "1"])
        path.write_text(f"0 {h} 1 yes\n0 0\n")
        with pytest.raises(formats.ParseError, match="refined flag") as exc:
            formats.read_groups(str(path))
        assert exc.value.line_no == 1


EYE = "1 0 0 0 1 0 0 0 1"


def _read_dims(path):
    # dims.txt is read before any other file of the image directory.
    return formats.read_image_dir(os.path.dirname(path))


# (reader, file name, good records before the bad one, bad record)
MALFORMED = {
    "segments-count": (formats.read_segments, "segments.txt", ["0 0 10 5"], "0 0 10"),
    "segments-text": (formats.read_segments, "segments.txt", ["0 0 10 5"], "0 0 x 5"),
    "segments-value": (formats.read_segments, "segments.txt", ["0 0 10 5"], "3 4 3 4"),
    "boxes-count": (formats.read_boxes, "boxes.txt", ["0 0 10 5 0.5"], "0 0 10 5"),
    "boxes-text": (formats.read_boxes, "boxes.txt", ["0 0 10 5 0.5"], "0 0 10 y 0.5"),
    "boxes-value": (formats.read_boxes, "boxes.txt", ["0 0 10 5 0.5"], "0 0 10 5 1.5"),
    "quads-count": (formats.read_quads, "quads.txt", ["0 0 1 0 1 1 0 1 0.5 original"],
                    "0 0 1 0 1 1 0 1 original"),
    "quads-text": (formats.read_quads, "quads.txt", ["0 0 1 0 1 1 0 1 0.5 original"],
                   "0 0 1 0 1 z 0 1 0.5 original"),
    "quads-value": (formats.read_quads, "quads.txt", ["0 0 1 0 1 1 0 1 0.5 original"],
                    "0 0 1 1 1 0 0 1 0.5 rect:0"),
    "features-count": (formats.read_features, "features.txt", ["D 2", "1 2 0.6 0.8"],
                       "1 2 0.6"),
    "features-text": (formats.read_features, "features.txt", ["D 2", "1 2 0.6 0.8"],
                      "1 2 0.6 w"),
    "features-value": (formats.read_features, "features.txt", ["D 2", "1 2 0.6 0.8"],
                       "1 2 0.6 0.6"),
    "matches-count": (formats.read_matches, "matches.txt", ["0 3 0.5 0"], "0 3 0.5"),
    "matches-text": (formats.read_matches, "matches.txt", ["0 3 0.5 0"], "0 x 0.5 0"),
    "matches-value": (formats.read_matches, "matches.txt", ["0 3 0.5 0"], "0 3.5 0.5 0"),
    "groups-count": (formats.read_groups, "groups.txt", [f"0 {EYE} 1 0", "0 0"], f"1 {EYE} 1"),
    "groups-text": (formats.read_groups, "groups.txt", [f"0 {EYE} 1 0", "0 0"],
                    f"1 {EYE} x 0"),
    "groups-value": (formats.read_groups, "groups.txt", [f"0 {EYE} 1 0", "0 0"],
                     "1 1 2 3 2 4 6 0 0 1 1 0"),
    "feature-pairs-count": (formats.read_feature_pairs, "gt.txt", ["0 4"], "1"),
    "feature-pairs-text": (formats.read_feature_pairs, "gt.txt", ["0 4"], "1 b"),
    "feature-pairs-value": (formats.read_feature_pairs, "gt.txt", ["0 4"], "1 2.5"),
    "dims-count": (_read_dims, "dims.txt", [], "1280"),
    "dims-text": (_read_dims, "dims.txt", [], "1280 h"),
    "dims-value": (_read_dims, "dims.txt", [], "1280 0"),
    "pairs-count": (formats.read_pairs, "pairs.txt", ["a/x a/y out0"], "a/x a/y"),
    "pairs-repeated-out": (formats.read_pairs, "pairs.txt", ["a b out", "c d x"], "e f ./x/"),
}


class TestRecordRules:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_record(self, tmp_path, case):
        read, name, good, bad = MALFORMED[case]
        path = tmp_path / name
        path.write_text("".join(f"{line}\n" for line in [*good, bad]))
        with pytest.raises(formats.ParseError) as exc:
            read(str(path))
        assert exc.value.path == str(path)
        assert exc.value.line_no == len(good) + 1

    def test_non_ascii_byte(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_bytes(b"0 0 10 5 0.5\n0 0 10 5 0.5 caf\xe9\n")
        with pytest.raises(formats.ParseError, match="non-ASCII byte 0xe9") as exc:
            formats.read_boxes(str(path))
        assert exc.value.line_no == 2

    def test_non_ascii_byte_exit_code(self, tmp_path, capsys):
        scene = _write_scene(tmp_path)
        n = len(formats.read_boxes(f"{scene}/a/boxes.txt"))
        with open(f"{scene}/a/boxes.txt", "ab") as fh:
            fh.write(b"\xe9\n")
        capsys.readouterr()
        rc = main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {scene}/a/boxes.txt:{n + 1}: non-ASCII byte 0xe9"]

    def test_crlf_reads_as_lf(self, tmp_path):
        scene = _write_scene(tmp_path)
        lf = formats.read_image_dir(f"{scene}/a")
        for name in os.listdir(f"{scene}/a"):
            path = f"{scene}/a/{name}"
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data.replace(b"\n", b"\r\n"))
        crlf = formats.read_image_dir(f"{scene}/a")
        assert (crlf.width, crlf.height) == (lf.width, lf.height)
        assert [(s.p.tolist(), s.q.tolist()) for s in crlf.segments] == [
            (s.p.tolist(), s.q.tolist()) for s in lf.segments]
        assert crlf.boxes == lf.boxes and crlf.rect_boxes == lf.rect_boxes
        assert [(f.id, f.pos.tolist(), f.desc.tolist()) for f in crlf.features] == [
            (f.id, f.pos.tolist(), f.desc.tolist()) for f in lf.features]

    def test_second_dims_record(self, tmp_path):
        scene = _write_scene(tmp_path)
        with open(f"{scene}/a/dims.txt", "a") as fh:
            fh.write("5 5\n")
        with pytest.raises(formats.ParseError) as exc:
            formats.read_image_dir(f"{scene}/a")
        assert exc.value.path.endswith("dims.txt") and exc.value.line_no == 2

    def test_repeated_feature_pair(self, tmp_path):
        path = tmp_path / "gt_feature_pairs.txt"
        path.write_text("0 4\n0 5\n")
        with pytest.raises(formats.ParseError, match="repeated feature id 0") as exc:
            formats.read_feature_pairs(str(path))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("text", ["D -2\n", "D -1\n0.5\n"])
    def test_negative_descriptor_length(self, tmp_path, text):
        path = tmp_path / "features.txt"
        path.write_text(text)
        with pytest.raises(formats.ParseError, match="'D <dim>' header") as exc:
            formats.read_features(str(path))
        assert exc.value.line_no == 1

    def test_negative_group_box_index(self, tmp_path):
        path = tmp_path / "groups.txt"
        path.write_text(f"0 {EYE} 2 0\n0 0\n-1 -7\n")
        with pytest.raises(formats.ParseError, match="negative box index") as exc:
            formats.read_groups(str(path))
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("first,second,line_no", [
        ("0", "banana", 3), ("0", "2", 3), ("0", "00", 3), ("1", "0", 1),
    ])
    def test_group_id_not_its_position(self, tmp_path, first, second, line_no):
        # write_groups numbers the groups 0, 1, 2, ... in file order.
        path = tmp_path / "groups.txt"
        path.write_text(f"{first} {EYE} 1 0\n0 0\n{second} {EYE} 1 0\n1 1\n")
        with pytest.raises(formats.ParseError, match="group id must be") as exc:
            formats.read_groups(str(path))
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("bad", ["-3 1 0.5 0", "1 -3 0.5 0", "0 1 0.5 -7"])
    def test_match_ids_no_writer_produces(self, tmp_path, bad):
        # Feature ids are >= 0 and a match's group id is >= -1 (the fallback).
        path = tmp_path / "matches.txt"
        path.write_text(f"0 3 0.5 0\n2 4 0.25 -1\n{bad}\n")
        with pytest.raises(formats.ParseError, match="group id below -1") as exc:
            formats.read_matches(str(path))
        assert exc.value.line_no == 3

    def test_negative_quad_plane(self, tmp_path):
        path = tmp_path / "quads.txt"
        path.write_text("0 0 1 0 1 1 0 1 0.5 rect:0\n0 0 1 0 1 1 0 1 0.5 rect:-3\n")
        with pytest.raises(formats.ParseError, match="bad frame tag") as exc:
            formats.read_quads(str(path))
        assert exc.value.line_no == 2

    def test_only_rejections_become_parse_errors(self, tmp_path, monkeypatch):
        # A fault inside a constructor is not an input error: it propagates.
        def broken(*args):
            raise RuntimeError("constructor fault")

        path = tmp_path / "segments.txt"
        path.write_text("0 0 10 5\n")
        monkeypatch.setattr(formats, "LineSegment", broken)
        with pytest.raises(RuntimeError, match="constructor fault"):
            formats.read_segments(str(path))


def _counted(fn, calls):
    """fn, logging the arguments of each call to the list calls."""
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


def _write_scene(tmp_path, seed=0):
    out = str(tmp_path / f"scene{seed}")
    assert main(["synth", "--out", out, "--preset", "single", "--seed", str(seed)]) == 0
    return out


class TestCli:
    def test_synth_match_eval(self, tmp_path, capsys):
        scene = _write_scene(tmp_path)
        out = str(tmp_path / "out")
        rc = main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b", "--out", out])
        assert rc == 0
        assert os.path.exists(f"{out}/matches.txt")
        rc = main([
            "eval", "--matches", f"{out}/matches.txt", "--gt", f"{scene}/gt_feature_pairs.txt",
            "--features2", f"{scene}/b/features.txt",
        ])
        assert rc == 0
        lines = dict(l.split() for l in capsys.readouterr().out.strip().splitlines()[-4:])
        assert float(lines["precision"]) >= 0.9
        assert float(lines["recall"]) >= 0.8

    def test_match_deterministic_bytes(self, tmp_path):
        scene = _write_scene(tmp_path)
        outs = []
        for tag in ("x", "y"):
            out = str(tmp_path / tag)
            assert main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b", "--out", out]) == 0
            with open(f"{out}/matches.txt", "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_report_file_is_match_pair_report(self, tmp_path):
        scene = str(tmp_path / "scene")
        assert main(["synth", "--out", scene, "--preset", "two-facade", "--seed", "0"]) == 0
        out = tmp_path / "out"
        assert main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b", "--out", str(out),
                     "--mode", "(O+R)A"]) == 0
        imgs = [formats.read_image_dir(f"{scene}/{side}", min_seg_len=20.0) for side in "ab"]
        _ms, report = match_pair(*imgs, VpParams(), mode="(O+R)A")
        keys = ["mode", "vps_1", "vps_2", "boxes_1", "boxes_2",
                "groups", "guided_matches", "additional_matches"]
        assert sorted(report) == sorted(keys)
        assert out.joinpath("report.txt").read_text() == "".join(
            f"{k} {report[k]}\n" for k in keys)

    def test_batch_serial_equals_parallel(self, tmp_path):
        scenes = [_write_scene(tmp_path, seed=s) for s in (0, 1, 2)]
        results = {}
        for jobs, tag in ((1, "serial"), (4, "parallel")):
            pairs = tmp_path / f"pairs_{tag}.txt"
            lines = [
                f"{s}/a {s}/b {tmp_path}/{tag}_{k}\n" for k, s in enumerate(scenes)
            ]
            pairs.write_text("".join(lines))
            assert main(["match", "--pairs-file", str(pairs), "--jobs", str(jobs)]) == 0
            blobs = []
            for k in range(len(scenes)):
                with open(f"{tmp_path}/{tag}_{k}/matches.txt", "rb") as fh:
                    blobs.append(fh.read())
            results[tag] = blobs
        assert results["serial"] == results["parallel"]

    def test_vps_command(self, tmp_path, capsys):
        from objguide.synth import pencil_segments

        rng = np.random.default_rng(0)
        segs = pencil_segments(np.array([0.0, 1, 0]), 20, rng)
        segs += pencil_segments(np.array([1.0, 0, 0]), 20, rng)
        path = str(tmp_path / "segments.txt")
        formats.write_segments(path, segs)
        out = str(tmp_path / "vps.txt")
        rc = main(["vps", "--segments", path, "--width", "1280", "--height", "960",
                   "--out", out, "--min-seg-len", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert {l.split()[3] for l in lines} == {"vertical", "horizontal"}

    def test_rectify_command(self, tmp_path):
        scene = _write_scene(tmp_path)
        out = str(tmp_path / "rect")
        rc = main(["rectify", "--segments", f"{scene}/a/segments.txt",
                   "--width", "1280", "--height", "960", "--out", out])
        assert rc == 0
        assert os.path.exists(f"{out}/rectifiers.txt")
        assert os.path.exists(f"{out}/intervals.txt")

    def test_rectify_writes_pipeline_rectifiers(self, tmp_path, capsys):
        # The rectify command writes the frames match_pair and synth use.
        scene = str(tmp_path / "scene")
        assert main(["synth", "--out", scene, "--preset", "two-facade", "--seed", "0"]) == 0
        out = str(tmp_path / "rect")
        rc = main(["rectify", "--segments", f"{scene}/a/segments.txt",
                   "--width", "1280", "--height", "960", "--out", out])
        assert rc == 0
        segments = formats.read_segments(f"{scene}/a/segments.txt", min_len=20.0)
        table = segment_arrays(segments)
        vps = image_vps(table, 1280, 960, VpParams())
        built, intervals = build_plane_rectifiers(table, vps, 1280, 960, VpParams())
        assert intervals
        expected = [r for r in built if r is not None]
        formats.write_rectifiers(str(tmp_path / "rectifiers.txt"), expected)
        formats.write_intervals(str(tmp_path / "intervals.txt"), intervals)
        for name in ("rectifiers.txt", "intervals.txt"):
            with open(f"{out}/{name}", "rb") as got, open(tmp_path / name, "rb") as want:
                assert got.read() == want.read()
        stdout = capsys.readouterr().out.strip().splitlines()
        assert stdout[-1] == f"planes={len(intervals)} rectifiers={len(expected)}"

    def test_rectify_without_vertical_vp(self, tmp_path, capsys):
        from objguide.synth import pencil_segments

        rng = np.random.default_rng(0)
        segs = pencil_segments(np.array([1.0, 0.0, 0.0]), 20, rng)
        segs += pencil_segments(np.array([1.0, 0.3, 0.0]), 20, rng)
        path = str(tmp_path / "segments.txt")
        formats.write_segments(path, segs)
        out = str(tmp_path / "rect")
        rc = main(["rectify", "--segments", path, "--width", "1280", "--height", "960",
                   "--out", out, "--min-seg-len", "0"])
        assert rc == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "planes=0 rectifiers=0"

    @pytest.mark.parametrize("flag,value", [
        ("--angle-thresh", "0"),
        ("--angle-thresh", "nan"),
        ("--angle-thresh", "90"),
        ("--angle-thresh", "inf"),
        ("--min-seg-len", "nan"),
        ("--min-seg-len", "-1"),
        ("--jobs", "0"),
        ("--jobs", "-2"),
    ])
    def test_invalid_parameter_exit_code(self, tmp_path, capsys, flag, value):
        scene = _write_scene(tmp_path)
        capsys.readouterr()
        rc = main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b",
                   "--out", str(tmp_path / "out"), flag, value])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("flag,value", [
        ("--k-candidates", "5"),
        ("--iou-thresh", "0.5"),
        ("--r-search", "20"),
        ("--gem-p", "3"),
        ("--ratio", "0.8"),
    ])
    def test_matching_constant_is_not_a_flag(self, tmp_path, capsys, flag, value):
        # The matcher's design values are module constants, even at their values.
        scene = _write_scene(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b",
                  "--out", str(tmp_path / "out"), flag, value])
        assert exc.value.code == EXIT_PARSE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_vps_rejects_nan_min_seg_len(self, tmp_path, capsys):
        # nan would otherwise drop every segment and print no VP with exit 0.
        scene = _write_scene(tmp_path)
        capsys.readouterr()
        rc = main(["vps", "--segments", f"{scene}/a/segments.txt", "--width", "1280",
                   "--height", "960", "--min-seg-len", "nan"])
        assert rc == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid parameter: min_seg_len")

    def test_match_without_pair_is_usage_error(self, tmp_path, capsys):
        # Rejected before any work, so no output directory appears.
        scene = _write_scene(tmp_path)
        out = str(tmp_path / "out")
        for args in ([], ["--dir1", f"{scene}/a", "--dir2", f"{scene}/b"], ["--out", out]):
            with pytest.raises(SystemExit) as exc:
                main(["match", *args])
            assert exc.value.code == EXIT_PARSE
            assert "--pairs-file" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--dir1", "--dir2", "--out"])
    def test_pairs_file_with_single_pair_flag_is_usage_error(self, tmp_path, capsys, flag):
        # Rejected before any work: neither the batch's nor the flag's output appears.
        scene = _write_scene(tmp_path)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"{scene}/a {scene}/b {tmp_path / 'batch_out'}\n")
        with pytest.raises(SystemExit) as exc:
            main(["match", "--pairs-file", str(pairs), flag, str(tmp_path / "flag_out")])
        assert exc.value.code == EXIT_PARSE
        assert "not both" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "batch_out")
        assert not os.path.exists(tmp_path / "flag_out")

    def test_pairs_file_repeated_out_dir_exit_code(self, tmp_path, capsys):
        # Rejected before any pair runs: the later pair would overwrite the
        # earlier one's files, or share the directory with it at --jobs 2.
        scene = _write_scene(tmp_path)
        out = tmp_path / "out"
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"{scene}/a {scene}/b {out}\n{scene}/b {scene}/a {out}/\n")
        capsys.readouterr()
        assert main(["match", "--pairs-file", str(pairs), "--jobs", "2"]) == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {pairs}:2: output directory repeats line 1"]
        assert not os.path.exists(out)

    def test_out_file_fails_before_the_pair_runs(self, tmp_path, capsys, monkeypatch):
        scene = _write_scene(tmp_path)
        taken = tmp_path / "taken.txt"
        taken.write_text("taken\n")
        calls = []
        monkeypatch.setattr(cli, "match_pair", _counted(match_pair, calls))
        capsys.readouterr()
        rc = main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b", "--out", str(taken)])
        assert rc == EXIT_PARSE
        assert calls == []
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: output directory {taken}: {taken} is not a directory"]
        assert taken.read_text() == "taken\n"

    @pytest.mark.parametrize("sub", ["", "/sub"])
    def test_pairs_file_bad_out_fails_before_any_pair_runs(
        self, tmp_path, capsys, monkeypatch, sub
    ):
        # Line 2's output is a file or lies under one: line 1's pair never
        # runs, so its directory is never made.
        scene = _write_scene(tmp_path)
        taken = tmp_path / "taken.txt"
        taken.write_text("taken\n")
        first = tmp_path / "first"
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"{scene}/a {scene}/b {first}\n{scene}/b {scene}/a {taken}{sub}\n")
        calls = []
        monkeypatch.setattr(cli, "match_pair", _counted(match_pair, calls))
        capsys.readouterr()
        assert main(["match", "--pairs-file", str(pairs), "--jobs", "1"]) == EXIT_PARSE
        assert calls == []
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: output directory {taken}{sub}: {taken} is not a directory"]
        assert not os.path.exists(first)

    @pytest.mark.parametrize("command", ["vps", "rectify"])
    @pytest.mark.parametrize("flag,value", [("--jobs", "2"), ("--mode", "O")])
    def test_match_only_flag_rejected(self, tmp_path, capsys, command, flag, value):
        scene = _write_scene(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--segments", f"{scene}/a/segments.txt", "--width", "1280",
                  "--height", "960", "--out", str(tmp_path / "out"), flag, value])
        assert exc.value.code == EXIT_PARSE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["O", "(O+R)A"])
    @pytest.mark.parametrize("text", ["0 960\n", "-1280 960\n"])
    def test_non_positive_dims_exit_code(self, tmp_path, capsys, mode, text):
        # A two-facade scene builds rectifiers in every mode, which crashed
        # on an empty column range before the size was checked.
        scene = str(tmp_path / "scene")
        assert main(["synth", "--out", scene, "--preset", "two-facade", "--seed", "0"]) == 0
        with open(f"{scene}/a/dims.txt", "w") as fh:
            fh.write(text)
        capsys.readouterr()
        rc = main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b",
                   "--out", str(tmp_path / "out"), "--mode", mode])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {scene}/a/dims.txt:1: ")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command", ["vps", "rectify"])
    @pytest.mark.parametrize("size", [("0", "960"), ("-5", "960"), ("1280", "0"), ("0", "0")])
    def test_non_positive_size_flags_rejected(self, tmp_path, capsys, command, size):
        scene = _write_scene(tmp_path)
        capsys.readouterr()
        rc = main([command, "--segments", f"{scene}/a/segments.txt", "--width", size[0],
                   "--height", size[1], "--out", str(tmp_path / "out")])
        assert rc == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid parameter: width and height")
        assert not os.path.exists(tmp_path / "out")

    def test_parse_error_exit_code(self, tmp_path):
        scene = _write_scene(tmp_path)
        with open(f"{scene}/a/segments.txt", "a") as fh:
            fh.write("not a number\n")
        rc = main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("name,text", [
        ("dims.txt", "abc 960\n"),
        ("quads.txt", "0 0 1 0 1 1 0 1 0.5 rect:x\n"),
        ("segments.txt", "0 0 inf 5\n"),
        ("segments.txt", "0 0 nan 5\n"),
        ("boxes.txt", "0 0 inf 5 0.5\n"),
    ])
    def test_malformed_image_file_exit_code(self, tmp_path, capsys, name, text):
        scene = _write_scene(tmp_path)
        with open(f"{scene}/a/{name}", "w") as fh:
            fh.write(text)
        capsys.readouterr()
        rc = main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {scene}/a/{name}:1: ")

    def test_non_finite_feature_exit_code(self, tmp_path, capsys):
        scene = _write_scene(tmp_path)
        path = f"{scene}/a/features.txt"
        with open(path) as fh:
            lines = fh.read().splitlines()
        fields = lines[2].split()
        lines[2] = " ".join(fields[:2] + ["nan"] + fields[3:])
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}:3: non-finite")

    @pytest.mark.parametrize("command", ["match", "synth", "vps", "rectify"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        # numpy's generator takes no negative seed; the flag is refused first.
        scene = _write_scene(tmp_path)
        out = str(tmp_path / "out")
        size = ["--segments", f"{scene}/a/segments.txt", "--width", "1280", "--height", "960"]
        args = {
            "match": ["--dir1", f"{scene}/a", "--dir2", f"{scene}/b"],
            "synth": [],
            "vps": size,
            "rectify": size,
        }[command]
        capsys.readouterr()
        rc = main([command, *args, "--out", out, "--seed=-1"])
        assert rc == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid parameter: ")
        assert "seed must be >= 0" in captured.err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_eval_rejects_invalid_tolerance(self, tmp_path, capsys, tol):
        scene = _write_scene(tmp_path)
        matches = str(tmp_path / "matches.txt")
        formats.write_matches(matches, MatchSet([Match(0, 0, 1.0, -1)], []))
        capsys.readouterr()
        rc = main(["eval", "--matches", matches, "--gt", f"{scene}/gt_feature_pairs.txt",
                   "--features2", f"{scene}/b/features.txt", "--tol", tol])
        assert rc == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: invalid parameter: tol must be >= 0"

    def test_eval_rejects_unknown_feature_id(self, tmp_path, capsys):
        # With image 2 cut to 5 features, a match to feature 7 and the
        # ground truth's partners beyond id 4 name no feature of the file.
        scene = _write_scene(tmp_path)
        feats2 = f"{scene}/b/features.txt"
        formats.write_features(feats2, formats.read_features(feats2)[:5])
        matches = str(tmp_path / "matches.txt")
        gt = f"{scene}/gt_feature_pairs.txt"
        gt_j = next(j for j in formats.read_feature_pairs(gt).values() if j > 4)
        for ms, path, j in ((MatchSet([Match(0, 7, 1.0, -1)], []), matches, 7),
                            (MatchSet([], []), gt, gt_j)):
            formats.write_matches(matches, ms)
            capsys.readouterr()
            rc = main(["eval", "--matches", matches, "--gt", gt, "--features2", feats2])
            assert rc == EXIT_PARSE
            err = capsys.readouterr().err.strip()
            assert err == f"error: {path}: feature id {j} is not in {feats2}"

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["match", "--dir1", str(tmp_path / "nope1"), "--dir2", str(tmp_path / "nope2"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("argv", [
        lambda scene, taken: ["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b",
                              "--out", taken],
        lambda scene, taken: ["match", "--dir1", f"{scene}/a", "--dir2", taken,
                              "--out", f"{scene}/out"],
        lambda scene, taken: ["synth", "--out", taken],
    ], ids=["match-out", "match-dir2", "synth-out"])
    def test_file_where_a_directory_belongs_exit_code(self, tmp_path, capsys, argv):
        scene = _write_scene(tmp_path)
        taken = tmp_path / "taken.txt"
        taken.write_text("taken\n")
        capsys.readouterr()
        assert main(argv(scene, str(taken))) == EXIT_PARSE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert taken.read_text() == "taken\n"
        assert not os.path.exists(f"{scene}/out")

    def test_dimension_mismatch_exit_code(self, tmp_path):
        scene = _write_scene(tmp_path)
        feats = formats.read_features(f"{scene}/b/features.txt")
        smaller = [
            Feature(id=f.id, pos=f.pos, desc=_unit(f.desc[:64])) for f in feats
        ]
        formats.write_features(f"{scene}/b/features.txt", smaller)
        rc = main(["match", "--dir1", f"{scene}/a", "--dir2", f"{scene}/b",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_DIMENSION
