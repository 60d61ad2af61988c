"""Command line driver: scene synthesis, stage-wise tools, matching, scoring.

Exit codes: 0 success, 2 input parse failure (with file:line diagnostics),
invalid parameter value or a path that cannot be read or written, 3
descriptor dimension mismatch between the two images.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import io as formats
from .guided import match_pair
from .objmatch import DimensionMismatchError
from .rectify import MODES, build_plane_rectifiers
from .synth import PRESETS, GroundTruth, generate, preset, score
from .vanishing import VpParams, image_vps, segment_arrays

EXIT_PARSE = 2
EXIT_DIMENSION = 3


def _add_vp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--angle-thresh", type=float, default=2.0)
    p.add_argument("--min-seg-len", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)


class InvalidParameterError(Exception):
    """A pipeline flag holds a value the parameter classes reject."""


def _checked(make, **kwargs):
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise InvalidParameterError(f"invalid parameter: {exc}") from exc


def _vp_params(args) -> VpParams:
    # Written so that nan fails it: read_segments would silently drop every segment.
    if not args.min_seg_len >= 0.0:
        raise InvalidParameterError("invalid parameter: min_seg_len must be >= 0")
    return _checked(VpParams, angle_thresh=args.angle_thresh, rng_seed=args.seed)


def _image_size(args) -> tuple[int, int]:
    if args.width < 1 or args.height < 1:
        raise InvalidParameterError("invalid parameter: width and height must be >= 1")
    return args.width, args.height


def _check_out_dir(out: str) -> None:
    """Raise OSError unless out is a directory or can be made one: the
    nearest existing path on it is a writable directory."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(f"output directory {out}: {path} is not a directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(f"output directory {out}: {path} is not writable")


def _run_one_pair(dir1: str, dir2: str, out: str, args, vp_params: VpParams) -> dict:
    img1 = formats.read_image_dir(dir1, min_seg_len=args.min_seg_len)
    img2 = formats.read_image_dir(dir2, min_seg_len=args.min_seg_len)
    ms, report = match_pair(img1, img2, vp_params, mode=args.mode)
    os.makedirs(out, exist_ok=True)
    formats.write_matches(os.path.join(out, "matches.txt"), ms)
    formats.write_groups(os.path.join(out, "groups.txt"), ms.groups)
    formats.write_report(os.path.join(out, "report.txt"), report)
    return report


def cmd_match(args) -> int:
    vp_params = _vp_params(args)
    if args.jobs < 1:
        raise InvalidParameterError("invalid parameter: jobs must be >= 1")
    if args.pairs_file:
        jobs = formats.read_pairs(args.pairs_file)
    else:
        jobs = [(args.dir1, args.dir2, args.out)]
    # Before any pair runs: a bad path would otherwise fail only after its
    # pair, with the files of earlier pairs written and no summary.
    for _a, _b, out in jobs:
        _check_out_dir(out)
    if args.pairs_file:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_one_pair, a, b, o, args, vp_params) for a, b, o in jobs]
            reports = [f.result() for f in futures]
        for (a, b, _o), rep in zip(jobs, reports):
            print(f"{a} {b}: groups={rep['groups']} guided={rep['guided_matches']} "
                  f"additional={rep['additional_matches']}")
        return 0

    rep = _run_one_pair(args.dir1, args.dir2, args.out, args, vp_params)
    for k, v in rep.items():
        print(f"{k} {v}")
    return 0


def cmd_vps(args) -> int:
    vp_params = _vp_params(args)
    segs = segment_arrays(formats.read_segments(args.segments, min_len=args.min_seg_len))
    vps = image_vps(segs, *_image_size(args), vp_params)
    if args.out:
        formats.write_vps(args.out, vps)
    for vp in vps:
        p = vp.point
        print(f"{p[0]} {p[1]} {p[2]} {vp.orientation} {vp.support}")
    return 0


def cmd_rectify(args) -> int:
    vp_params = _vp_params(args)
    segs = segment_arrays(formats.read_segments(args.segments, min_len=args.min_seg_len))
    width, height = _image_size(args)
    vps = image_vps(segs, width, height, vp_params)
    built, intervals = build_plane_rectifiers(segs, vps, width, height, vp_params)
    for facade_id, r in enumerate(built):
        if r is None:
            print(f"plane {facade_id}: degenerate rectifier, skipped", file=sys.stderr)
    rectifiers = [r for r in built if r is not None]
    os.makedirs(args.out, exist_ok=True)
    formats.write_rectifiers(os.path.join(args.out, "rectifiers.txt"), rectifiers)
    formats.write_intervals(os.path.join(args.out, "intervals.txt"), intervals)
    print(f"planes={len(intervals)} rectifiers={len(rectifiers)}")
    return 0


def cmd_synth(args) -> int:
    scene = generate(_checked(preset, name=args.preset, seed=args.seed))
    formats.write_image_dir(os.path.join(args.out, "a"), scene.img_a)
    formats.write_image_dir(os.path.join(args.out, "b"), scene.img_b)
    formats.write_feature_pairs(
        os.path.join(args.out, "gt_feature_pairs.txt"), scene.gt.feature_pairs
    )
    print(f"wrote scene to {args.out}")
    return 0


def cmd_eval(args) -> int:
    matches = formats.read_matches(args.matches)
    pairs = formats.read_feature_pairs(args.gt)
    feats2 = formats.read_features(args.features2)
    ids2 = {f.id for f in feats2}
    for path, js in ((args.matches, [m.j for m in matches]), (args.gt, pairs.values())):
        if bad := [j for j in js if j not in ids2]:
            raise InvalidParameterError(f"{path}: feature id {bad[0]} is not in {args.features2}")
    gt = GroundTruth(feature_pairs=pairs)
    rep = _checked(score, matches=matches, feats2=feats2, gt=gt, tol=args.tol)
    print(f"precision {rep.precision}")
    print(f"recall {rep.recall}")
    print(f"correct {rep.n_correct}")
    print(f"matches {rep.n_matches}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="objguide",
        description="Object-box guided local feature matching for urban image pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="run the full pipeline on an image pair")
    p.add_argument("--dir1")
    p.add_argument("--dir2")
    p.add_argument("--out")
    p.add_argument("--pairs-file", help="batch mode: lines of 'dir1 dir2 outdir'")
    p.add_argument("--jobs", type=int, default=1)
    _add_vp_flags(p)
    p.add_argument("--mode", choices=MODES, default="O")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("vps", help="estimate vanishing points from segments")
    p.add_argument("--segments", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out")
    _add_vp_flags(p)
    p.set_defaults(func=cmd_vps)

    p = sub.add_parser("rectify", help="plane segmentation and rectifiers")
    p.add_argument("--segments", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_vp_flags(p)
    p.set_defaults(func=cmd_rectify)

    p = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=PRESETS, default="two-facade")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score matches against planted correspondences")
    p.add_argument("--matches", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--features2", required=True)
    p.add_argument("--tol", type=float, default=3.0)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Before any work: a pair without --out would run in full, then fail to
    # write, and batch mode would silently ignore the single-pair flags.
    if args.command == "match":
        single = (args.dir1, args.dir2, args.out)
        if args.pairs_file and any(v is not None for v in single):
            parser.error("match takes --pairs-file or --dir1/--dir2/--out, not both")
        if not args.pairs_file and None in single:
            parser.error("match needs --pairs-file, or all of --dir1, --dir2 and --out")
    try:
        return args.func(args)
    except (formats.ParseError, OSError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION


if __name__ == "__main__":
    sys.exit(main())
