"""Line-oriented ASCII file formats for the pipeline's inputs and outputs.

One record per line, '.' decimal separator, LF endings.  Floats are written
with repr(), which round-trips exactly, so parse(serialize(x)) == x.  Every
reader parses through _fields and _build, and every writer through _write.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .geom import DetBox, GeometryError, Homography, LineSegment, QuadBox
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


def _join(values) -> str:
    return " ".join(map(_fmt, values))


def _write(path: str, records) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for record in records:
            fh.write(f"{record}\n")


def _lines(path: str):
    # A byte >= 0x80 decodes to a lone surrogate; isascii() is O(1) on ASCII.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.isascii():
                byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
                raise ParseError(path, no, f"non-ASCII byte 0x{byte:02x}")
            if line.strip():
                yield no, line


def _fields(path: str, no: int, line: str, n: int, conv=float) -> list:
    parts = line.split()
    if len(parts) != n:
        raise ParseError(path, no, f"expected {n} fields, got {len(parts)}")
    try:
        return [conv(p) for p in parts]
    except ValueError as exc:
        raise ParseError(path, no, str(exc)) from exc


def _build(path: str, no: int, make, *args):
    try:
        return make(*args)
    except (ValueError, GeometryError) as exc:
        raise ParseError(path, no, str(exc)) from exc


# -- segments ---------------------------------------------------------------

def write_segments(path: str, segments: list[LineSegment]) -> None:
    _write(path, (_join([*s.p, *s.q]) for s in segments))


def read_segments(path: str, min_len: float = 0.0) -> list[LineSegment]:
    out = []
    for no, line in _lines(path):
        v = _fields(path, no, line, 4)
        out.append(_build(path, no, LineSegment, v[:2], v[2:]))
    return [s for s in out if s.length >= min_len]


# -- boxes ------------------------------------------------------------------

def write_boxes(path: str, boxes: list[DetBox]) -> None:
    _write(path, (_join([b.xmin, b.ymin, b.xmax, b.ymax, b.score]) for b in boxes))


def read_boxes(path: str) -> list[DetBox]:
    return [_build(path, no, DetBox, *_fields(path, no, line, 5)) for no, line in _lines(path)]


# -- quads (with coordinate-frame tags) -------------------------------------

def write_quads(path: str, quads: list[tuple[QuadBox, str]]) -> None:
    """Each record: 8 corner coords (TL TR BR BL), score, frame tag."""
    _write(path, (f"{_join([*q.corners.ravel(), q.score])} {tag}" for q, tag in quads))


def read_quads(path: str) -> list[tuple[QuadBox, str]]:
    out = []
    for no, line in _lines(path):
        *vals, tag = _fields(path, no, line, 10, str)
        if not re.fullmatch(r"original|rect:[0-9]+", tag):
            raise ParseError(path, no, f"bad frame tag {tag!r}")
        quad = _build(path, no, lambda: QuadBox(
            np.array([float(v) for v in vals[:8]]).reshape(4, 2), float(vals[8])
        ))
        out.append((quad, tag))
    return out


# -- features ---------------------------------------------------------------

def write_features(path: str, feats: list[Feature]) -> None:
    """Rows in id order.  read_features numbers features by row, so the ids
    must be exactly 0..n-1; anything else raises ValueError."""
    feats = sorted(feats, key=lambda f: f.id)
    if [f.id for f in feats] != list(range(len(feats))):
        raise ValueError("feature ids must be exactly 0..n-1 to survive read_features")
    dim = len(feats[0].desc) if feats else 0
    _write(path, [f"D {dim}", *(_join([*f.pos, *f.desc]) for f in feats)])


def read_features(path: str) -> list[Feature]:
    it = _lines(path)
    no, header = next(it, (1, ""))
    key, dim = _fields(path, no, header, 2, str)
    if key != "D" or not dim.isdigit():
        raise ParseError(path, no, "malformed 'D <dim>' header")
    n, out = 2 + int(dim), []
    for no, line in it:
        vals = _fields(path, no, line, n)
        out.append(_build(path, no, Feature, len(out), vals[:2], np.array(vals[2:])))
    return out


# -- matches ----------------------------------------------------------------

def write_matches(path: str, ms: MatchSet) -> None:
    _write(path, (f"{m.i} {m.j} {_fmt(m.sim)} {m.group_id}" for m in ms.matches))


def read_matches(path: str) -> list[Match]:
    out = []
    for no, line in _lines(path):
        i, j, sim, gid = _fields(path, no, line, 4, str)
        m = _build(path, no, lambda: Match(int(i), int(j), float(sim), int(gid)))
        if m.i < 0 or m.j < 0 or m.group_id < -1:
            raise ParseError(path, no, f"negative feature id or group id below -1 in {line!r}")
        out.append(m)
    return out


# -- object groups ----------------------------------------------------------

def write_groups(path: str, groups: list[ObjectGroup]) -> None:
    _write(path, (record for gid, g in enumerate(groups) for record in (
        f"{gid} {_join(g.H.m.ravel())} {len(g.pairs)} {int(g.refined)}",
        *(f"{i} {j}" for i, j in g.pairs),
    )))


def read_groups(path: str) -> list[ObjectGroup]:
    out = []
    it = _lines(path)
    for no, line in it:
        parts = _fields(path, no, line, 12, str)
        if parts[0] != str(len(out)):
            raise ParseError(path, no, f"group id must be {len(out)}, got {parts[0]!r}")
        if parts[11] not in ("0", "1"):
            raise ParseError(path, no, f"refined flag must be 0 or 1, got {parts[11]!r}")
        npairs = _build(path, no, int, parts[10])
        h = _build(path, no, lambda: Homography(
            np.array([float(v) for v in parts[1:10]]).reshape(3, 3)
        ))
        if npairs < 0:
            raise ParseError(path, no, f"negative pair count {npairs}")
        pairs = []
        for _ in range(npairs):
            pno, pline = next(it, (no, None))
            if pline is None:
                raise ParseError(path, no, "truncated group record")
            i, j = _fields(path, pno, pline, 2, int)
            if i < 0 or j < 0:
                raise ParseError(path, pno, f"negative box index in pair {i} {j}")
            pairs.append((i, j))
        out.append(ObjectGroup(H=h, pairs=pairs, refined=parts[11] == "1"))
    return out


# -- rectifiers, intervals, vanishing points, reports -----------------------

def write_rectifiers(path: str, rectifiers: list[Rectifier]) -> None:
    _write(path, (f"{r.plane_id} {_join(r.H.m.ravel())}" for r in rectifiers))


def write_intervals(path: str, intervals: list[ColumnInterval]) -> None:
    _write(path, (f"{iv.lo} {iv.hi} {iv.plane_id}" for iv in intervals))


def write_vps(path: str, vps: list[VanishingPoint]) -> None:
    _write(path, (f"{_join(vp.point)} {vp.orientation or 'unclassified'} {vp.support}"
                  for vp in vps))


def write_report(path: str, report: dict) -> None:
    keys = ("mode", "vps_1", "vps_2", "boxes_1", "boxes_2",
            "groups", "guided_matches", "additional_matches")
    _write(path, (f"{key} {report[key]}" for key in keys))


# -- ground truth (synthetic scenes) and batch pair lists -------------------

def write_feature_pairs(path: str, pairs: dict[int, int]) -> None:
    _write(path, (f"{i} {pairs[i]}" for i in sorted(pairs)))


def read_feature_pairs(path: str) -> dict[int, int]:
    out = {}
    for no, line in _lines(path):
        i, j = _fields(path, no, line, 2, int)
        if i in out:
            raise ParseError(path, no, f"repeated feature id {i}")
        out[i] = j
    return out


def read_pairs(path: str) -> list[list[str]]:
    """Batch pair list: one 'dir1 dir2 outdir' record per line, no outdir
    named twice (compared as normalized absolute paths)."""
    pairs, first = [], {}
    for no, line in _lines(path):
        pairs.append(_fields(path, no, line, 3, str))
        out = first.setdefault(os.path.abspath(pairs[-1][2]), no)
        if out != no:
            raise ParseError(path, no, f"output directory repeats line {out}")
    return pairs


# -- whole-image bundles ----------------------------------------------------

def write_image_dir(dirpath: str, img: ImageInputs) -> None:
    os.makedirs(dirpath, exist_ok=True)
    write_segments(os.path.join(dirpath, "segments.txt"), img.segments)
    write_boxes(os.path.join(dirpath, "boxes.txt"), img.boxes)
    quads = [(QuadBox.from_detbox(b), f"rect:{plane}") for plane, b in img.rect_boxes]
    write_quads(os.path.join(dirpath, "quads.txt"), quads)
    write_features(os.path.join(dirpath, "features.txt"), img.features)
    _write(os.path.join(dirpath, "dims.txt"), [f"{img.width} {img.height}"])


def read_image_dir(dirpath: str, min_seg_len: float = 0.0) -> ImageInputs:
    dims_path = os.path.join(dirpath, "dims.txt")
    (no, line), *extra = list(_lines(dims_path)) or [(1, "")]
    width, height = _fields(dims_path, no, line, 2, int)
    if width < 1 or height < 1:
        raise ParseError(dims_path, no, "width and height must be >= 1")
    if extra:
        raise ParseError(dims_path, extra[0][0], "expected one 'width height' record")
    segments = read_segments(os.path.join(dirpath, "segments.txt"), min_seg_len)
    boxes = read_boxes(os.path.join(dirpath, "boxes.txt"))
    quads_path = os.path.join(dirpath, "quads.txt")
    rect_boxes: list[tuple[int, DetBox]] = []
    if os.path.exists(quads_path):
        for quad, tag in read_quads(quads_path):
            if tag == "original":
                boxes.append(_quad_hull(quad))
            else:
                rect_boxes.append((int(tag.removeprefix("rect:")), _quad_hull(quad)))
    features = read_features(os.path.join(dirpath, "features.txt"))
    return ImageInputs(
        width=width, height=height, segments=segments, boxes=boxes,
        features=features, rect_boxes=rect_boxes,
    )


def _quad_hull(quad: QuadBox) -> DetBox:
    (x0, y0), (x1, y1) = quad.corners.min(axis=0), quad.corners.max(axis=0)
    return DetBox(x0, y0, x1, y1, quad.score)
