"""Line-oriented ASCII file formats for the pipeline's inputs and outputs.

One record per line, '.' decimal separator, LF endings.  Floats are written
with repr(), which round-trips exactly, so parse(serialize(x)) == x.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .geom import DetBox, Homography, LineSegment, QuadBox
from .guided import ImageInputs, Match, MatchSet
from .objmatch import Feature, ObjectGroup
from .rectify import ColumnInterval, Rectifier
from .vanishing import VanishingPoint


class ParseError(Exception):
    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _fmt(x: float) -> str:
    return repr(float(x))


def _lines(path: str):
    with open(path, "r", encoding="ascii") as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.strip():
                yield no, line


def _floats(path: str, no: int, line: str, n: int) -> list[float]:
    parts = line.split()
    if len(parts) != n:
        raise ParseError(path, no, f"expected {n} fields, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(path, no, str(exc)) from exc


# -- segments ---------------------------------------------------------------

def write_segments(path: str, segments: list[LineSegment]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for s in segments:
            fh.write(f"{_fmt(s.p[0])} {_fmt(s.p[1])} {_fmt(s.q[0])} {_fmt(s.q[1])}\n")


def read_segments(path: str, min_len: float = 0.0) -> list[LineSegment]:
    out = []
    for no, line in _lines(path):
        x1, y1, x2, y2 = _floats(path, no, line, 4)
        try:
            seg = LineSegment((x1, y1), (x2, y2))
        except Exception as exc:
            raise ParseError(path, no, str(exc)) from exc
        if seg.length >= min_len:
            out.append(seg)
    return out


# -- boxes ------------------------------------------------------------------

def write_boxes(path: str, boxes: list[DetBox]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for b in boxes:
            fh.write(
                f"{_fmt(b.xmin)} {_fmt(b.ymin)} {_fmt(b.xmax)} {_fmt(b.ymax)} {_fmt(b.score)}\n"
            )


def read_boxes(path: str) -> list[DetBox]:
    out = []
    for no, line in _lines(path):
        vals = _floats(path, no, line, 5)
        try:
            out.append(DetBox(*vals))
        except Exception as exc:
            raise ParseError(path, no, str(exc)) from exc
    return out


# -- quads (with coordinate-frame tags) -------------------------------------

def write_quads(path: str, quads: list[tuple[QuadBox, str]]) -> None:
    """Each record: 8 corner coords (TL TR BR BL), score, frame tag."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for q, tag in quads:
            coords = " ".join(_fmt(v) for v in q.corners.ravel())
            fh.write(f"{coords} {_fmt(q.score)} {tag}\n")


def read_quads(path: str) -> list[tuple[QuadBox, str]]:
    out = []
    for no, line in _lines(path):
        parts = line.split()
        if len(parts) != 10:
            raise ParseError(path, no, f"expected 10 fields, got {len(parts)}")
        tag = parts[9]
        if not re.fullmatch(r"original|rect:[+-]?[0-9]+", tag):
            raise ParseError(path, no, f"bad frame tag {tag!r}")
        try:
            vals = [float(p) for p in parts[:9]]
            quad = QuadBox(np.array(vals[:8]).reshape(4, 2), vals[8])
        except Exception as exc:
            raise ParseError(path, no, str(exc)) from exc
        out.append((quad, tag))
    return out


# -- features ---------------------------------------------------------------

def write_features(path: str, feats: list[Feature]) -> None:
    feats = sorted(feats, key=lambda f: f.id)
    dim = len(feats[0].desc) if feats else 0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"D {dim}\n")
        for f in feats:
            vals = " ".join(_fmt(v) for v in f.desc)
            fh.write(f"{_fmt(f.pos[0])} {_fmt(f.pos[1])} {vals}\n")


def read_features(path: str) -> list[Feature]:
    it = _lines(path)
    try:
        no, header = next(it)
    except StopIteration:
        raise ParseError(path, 1, "missing 'D <dim>' header") from None
    parts = header.split()
    if len(parts) != 2 or parts[0] != "D":
        raise ParseError(path, no, "malformed 'D <dim>' header")
    try:
        dim = int(parts[1])
    except ValueError as exc:
        raise ParseError(path, no, str(exc)) from exc
    out = []
    for no, line in it:
        vals = _floats(path, no, line, 2 + dim)
        try:
            out.append(Feature(id=len(out), pos=vals[:2], desc=np.array(vals[2:])))
        except Exception as exc:
            raise ParseError(path, no, str(exc)) from exc
    return out


# -- matches ----------------------------------------------------------------

def write_matches(path: str, ms: MatchSet) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for m in ms.matches:
            fh.write(f"{m.i} {m.j} {_fmt(m.sim)} {m.group_id}\n")


def read_matches(path: str) -> list[Match]:
    out = []
    for no, line in _lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(path, no, f"expected 4 fields, got {len(parts)}")
        try:
            out.append(
                Match(i=int(parts[0]), j=int(parts[1]), sim=float(parts[2]), group_id=int(parts[3]))
            )
        except ValueError as exc:
            raise ParseError(path, no, str(exc)) from exc
    return out


# -- object groups ----------------------------------------------------------

def write_groups(path: str, groups: list[ObjectGroup]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for gid, g in enumerate(groups):
            h = " ".join(_fmt(v) for v in g.H.m.ravel())
            fh.write(f"{gid} {h} {len(g.pairs)} {int(g.refined)}\n")
            for i, j in g.pairs:
                fh.write(f"{i} {j}\n")


def read_groups(path: str) -> list[ObjectGroup]:
    out = []
    it = _lines(path)
    for no, line in it:
        parts = line.split()
        if len(parts) != 12:
            raise ParseError(path, no, f"expected 12 fields, got {len(parts)}")
        if parts[11] not in ("0", "1"):
            raise ParseError(path, no, f"refined flag must be 0 or 1, got {parts[11]!r}")
        try:
            npairs = int(parts[10])
            h = Homography(np.array([float(p) for p in parts[1:10]]).reshape(3, 3))
        except ValueError as exc:
            raise ParseError(path, no, str(exc)) from exc
        pairs = []
        for _ in range(npairs):
            try:
                pno, pline = next(it)
            except StopIteration:
                raise ParseError(path, no, "truncated group record") from None
            pp = pline.split()
            if len(pp) != 2:
                raise ParseError(path, pno, "expected 'i j'")
            try:
                pairs.append((int(pp[0]), int(pp[1])))
            except ValueError as exc:
                raise ParseError(path, pno, str(exc)) from exc
        out.append(ObjectGroup(H=h, pairs=pairs, refined=parts[11] == "1"))
    return out


# -- rectifiers & intervals -------------------------------------------------

def write_rectifiers(path: str, rectifiers: list[Rectifier]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for r in rectifiers:
            h = " ".join(_fmt(v) for v in r.H.m.ravel())
            fh.write(f"{r.plane_id} {h}\n")


def write_intervals(path: str, intervals: list[ColumnInterval]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for iv in intervals:
            fh.write(f"{iv.lo} {iv.hi} {iv.plane_id}\n")


def write_vps(path: str, vps: list[VanishingPoint]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for vp in vps:
            p = vp.point
            fh.write(
                f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} {vp.orientation or 'unclassified'} {vp.support}\n"
            )


# -- ground truth (synthetic scenes) ----------------------------------------

def write_feature_pairs(path: str, pairs: dict[int, int]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for i in sorted(pairs):
            fh.write(f"{i} {pairs[i]}\n")


def read_feature_pairs(path: str) -> dict[int, int]:
    out = {}
    for no, line in _lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, no, "expected 'i j'")
        try:
            out[int(parts[0])] = int(parts[1])
        except ValueError as exc:
            raise ParseError(path, no, str(exc)) from exc
    return out


# -- whole-image bundles ----------------------------------------------------

def write_image_dir(dirpath: str, img: ImageInputs) -> None:
    os.makedirs(dirpath, exist_ok=True)
    write_segments(os.path.join(dirpath, "segments.txt"), img.segments)
    write_boxes(os.path.join(dirpath, "boxes.txt"), img.boxes)
    quads = [
        (QuadBox.from_detbox(b), f"rect:{plane}") for plane, b in img.rect_boxes
    ]
    write_quads(os.path.join(dirpath, "quads.txt"), quads)
    write_features(os.path.join(dirpath, "features.txt"), img.features)
    with open(os.path.join(dirpath, "dims.txt"), "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{img.width} {img.height}\n")


def read_image_dir(dirpath: str, min_seg_len: float = 0.0) -> ImageInputs:
    dims_path = os.path.join(dirpath, "dims.txt")
    for no, line in _lines(dims_path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(dims_path, no, "expected 'width height'")
        try:
            width, height = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(dims_path, no, str(exc)) from exc
        if width < 1 or height < 1:
            raise ParseError(dims_path, no, "width and height must be >= 1")
        break
    else:
        raise ParseError(dims_path, 1, "empty dims file")

    segments = read_segments(os.path.join(dirpath, "segments.txt"), min_seg_len)
    boxes = read_boxes(os.path.join(dirpath, "boxes.txt"))
    quads_path = os.path.join(dirpath, "quads.txt")
    rect_boxes: list[tuple[int, DetBox]] = []
    if os.path.exists(quads_path):
        for quad, tag in read_quads(quads_path):
            if tag == "original":
                boxes.append(_quad_hull(quad))
            else:
                plane = int(tag.split(":", 1)[1])
                rect_boxes.append((plane, _quad_hull(quad)))
    features = read_features(os.path.join(dirpath, "features.txt"))
    return ImageInputs(
        width=width, height=height, segments=segments, boxes=boxes,
        features=features, rect_boxes=rect_boxes,
    )


def _quad_hull(quad: QuadBox) -> DetBox:
    lo = quad.corners.min(axis=0)
    hi = quad.corners.max(axis=0)
    return DetBox(lo[0], lo[1], hi[0], hi[1], quad.score)
