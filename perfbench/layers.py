"""Per-layer metrics derived from a traced pass.

Times are seconds per pair of the traced pass, summed over the spans of the
layer.  The pass and the set-up are traced separately, so set-up work
(``synth.generate`` also builds rectifiers) stays out of the pipeline stages.
Counts are per pair as well.  A metric whose wrapped function is missing is
reported as ``None`` with the reason, never as a crash.
"""

from __future__ import annotations

import numpy as np

from tracing import ROOT_SPAN, Tracer

# name -> (unit, wrapped names it needs)
PER_LAYER = {
    "objmatch.greedy_match_s": ("s", ["objmatch.greedy_match"]),
    "objmatch.greedy_match_self_s": ("s", ["objmatch.greedy_match"]),
    "objmatch.hypotheses": ("count/pair", ["objmatch.hypothesis"]),
    "objmatch.quad_iou_calls": ("count/pair", ["objmatch.quad_iou"]),
    "objmatch.group_yield": ("ratio", ["objmatch.greedy_match", "objmatch.hypothesis"]),
    "objmatch.box_descriptor_s": ("s", ["objmatch.box_descriptor"]),
    "guided.guided_match_s": ("s", ["guided.guided_match"]),
    "guided.additional_matches_s": ("s", ["guided.additional_matches"]),
    "guided.fallback_share": ("frac", ["guided.additional_matches", "guided.match_pair"]),
    "vanishing.estimate_vps_s": ("s", ["vanishing.estimate_vps"]),
    "boxes.vote_box_vps_s": ("s", ["boxes.vote_box_vps"]),
    "boxes.adjust_box_s": ("s", ["boxes.adjust_box"]),
    "boxes.adjust_fail_frac": ("frac", ["boxes.vote_box_vps", "boxes.adjust_box"]),
    "rectify.build_plane_rectifiers_s": ("s", ["rectify.build_plane_rectifiers"]),
    "rectify.backproject_fail_frac": ("frac", ["rectify.backproject_quad", "guided.match_pair"]),
    "rectify.merge_detections_s": ("s", ["rectify.merge_detections"]),
    "rectify.merge_kept_frac": ("frac", ["rectify.merge_detections"]),
    "io.read_image_dir_s": ("s", ["io.read_image_dir"]),
    "io.write_s": ("s", ["io.write_image_dir", "io.write_matches", "io.write_groups"]),
    "cli.cpu_util": ("frac", []),
    "objmatch.group_purity": ("frac", ["guided.match_pair", "rectify.merge_detections"]),
    "objmatch.spurious_groups": ("count/pair", ["guided.match_pair", "rectify.merge_detections"]),
    "guided.refine_accept_frac": ("frac", ["guided.refine_homography"]),
    "guided.match_pair_self_s": ("s", ["guided.match_pair"]),
    "synth.generate_s": ("s", ["synth.generate"]),
    "trace_overhead_frac": ("frac", []),
}

LABEL_IOU = 0.5  # merged quad -> input box attribution threshold


def _ratio(num: float, den: float):
    return num / den if den else None


def _stream_size(args) -> int:
    """Number of detections merge_detections was offered for its mode."""
    orthogonal, adjusted, rectified, rectified_adjusted, mode = args[:5]
    sizes = {
        "O": len(orthogonal),
        "OA": len(adjusted),
        "R": len(rectified),
        "RA": len(rectified_adjusted),
        "O+R": len(orthogonal) + len(rectified),
        "(O+R)A": len(adjusted) + len(rectified_adjusted),
    }
    return sizes.get(mode, 0)


def _quad_labels(quads, planes: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Plane of the input box each merged quad came from (-1: none/distractor).

    A merged quad is attributed by the IoU of its bounding box with the
    input detections; box planes are synth's ``box_plane_a/b``.
    """
    if not quads or len(boxes) == 0:
        return np.full(len(quads), -1)
    q = np.array([[*c.corners.min(axis=0), *c.corners.max(axis=0)] for c in quads])
    lo = np.maximum(q[:, None, :2], boxes[None, :, :2])
    hi = np.minimum(q[:, None, 2:], boxes[None, :, 2:])
    inter = np.prod(np.clip(hi - lo, 0.0, None), axis=2)
    area_q = np.prod(q[:, 2:] - q[:, :2], axis=1)
    area_b = np.prod(boxes[:, 2:] - boxes[:, :2], axis=1)
    iou = inter / (area_q[:, None] + area_b[None, :] - inter)
    best = np.argmax(iou, axis=1)
    ok = iou[np.arange(len(q)), best] >= LABEL_IOU
    return np.where(ok, planes[best], -1)


def _grouping(tr: Tracer, labels: dict, fingerprint) -> tuple[float | None, int]:
    """Pooled group purity over related pairs, and the spurious group count.

    A group is spurious on an unrelated pair, or when fewer than half of its
    box pairs join two boxes of its majority plane.
    """
    pure = total = spurious = 0
    for span in tr.named(ROOT_SPAN):
        if span.result is None:
            continue
        merges = [c for c in span.children if c.name == "rectify.merge_detections"]
        img1, img2 = span.args[0], span.args[1]
        info1, info2 = labels.get(fingerprint(img1)), labels.get(fingerprint(img2))
        ms = span.result[0]
        if len(merges) != 2 or info1 is None or info2 is None:
            return None, 0
        related = info1[2] == info2[2]
        if not related:
            spurious += len(ms.groups)
            continue
        lab1 = _quad_labels(merges[0].result, info1[0], info1[1])
        lab2 = _quad_labels(merges[1].result, info2[0], info2[1])
        for g in ms.groups:
            a = np.array([lab1[i] for i, _ in g.pairs])
            b = np.array([lab2[j] for _, j in g.pairs])
            on_plane = a[a >= 0]
            major = np.bincount(on_plane).argmax() if len(on_plane) else -1
            good = int(np.sum((a == major) & (b == major) & (a >= 0)))
            pure += good
            total += len(g.pairs)
            if 2 * good < len(g.pairs):
                spurious += 1
    return _ratio(pure, total), spurious


def layer_metrics(
    tr: Tracer,
    setup_tr: Tracer,
    n_pairs: int,
    labels: dict,
    fingerprint,
    cpu_util: float,
    overhead: float,
) -> dict[str, tuple[float | None, str, str]]:
    """Every per-layer metric as name -> (value or None, unit, missing reason)."""
    per = 1.0 / n_pairs
    both = [tr, setup_tr]

    def span_s(name):
        return sum(s.duration for s in tr.named(name)) * per

    def self_s(name):
        return sum(s.self_time for s in tr.named(name)) * per

    def raised(name):
        spans = tr.named(name)
        return sum(s.raised for s in spans), len(spans)

    def hyp():
        return tr.counts["objmatch.hypothesis"]

    def group_yield():
        spans = tr.named("objmatch.greedy_match")
        return _ratio(sum(len(s.result) for s in spans if s.result is not None), hyp())

    def fallback_share():
        extra = sum(len(s.result) for s in tr.named("guided.additional_matches")
                    if s.result is not None)
        total = sum(len(s.result[0].matches) for s in tr.named(ROOT_SPAN) if s.result)
        return _ratio(extra, total)

    def adjust_fail_frac():
        vote_fail, vote_calls = raised("boxes.vote_box_vps")
        adjust_fail, _ = raised("boxes.adjust_box")
        return _ratio(vote_fail + adjust_fail, vote_calls)

    def backproject_fail_frac():
        ok = sum(not s.raised for s in tr.named("rectify.backproject_quad"))
        offered = sum(
            len(s.args[0].rect_boxes) + len(s.args[1].rect_boxes) for s in tr.named(ROOT_SPAN)
        )
        return _ratio(offered - ok, offered)

    def merge_kept_frac():
        merges = tr.named("rectify.merge_detections")
        kept = sum(len(s.result) for s in merges if s.result is not None)
        return _ratio(kept, sum(_stream_size(s.args) for s in merges))

    def refine_accept_frac():
        refines = tr.named("guided.refine_homography")
        accepted = sum(bool(s.args[0].refined) for s in refines if not s.raised)
        return _ratio(accepted, len(refines))

    def spurious_groups():
        purity, spurious = _grouping(tr, labels, fingerprint)
        return None if purity is None else spurious * per

    def generate_s():
        gens = setup_tr.named("synth.generate")
        return _ratio(sum(s.duration for s in gens), len(gens))

    values = {
        "objmatch.greedy_match_s": lambda: span_s("objmatch.greedy_match"),
        "objmatch.greedy_match_self_s": lambda: self_s("objmatch.greedy_match"),
        "objmatch.hypotheses": lambda: hyp() * per,
        "objmatch.quad_iou_calls": lambda: tr.counts["objmatch.quad_iou"] * per,
        "objmatch.group_yield": group_yield,
        "objmatch.box_descriptor_s": lambda: span_s("objmatch.box_descriptor"),
        "guided.guided_match_s": lambda: span_s("guided.guided_match"),
        "guided.additional_matches_s": lambda: span_s("guided.additional_matches"),
        "guided.fallback_share": fallback_share,
        "vanishing.estimate_vps_s": lambda: span_s("vanishing.estimate_vps"),
        "boxes.vote_box_vps_s": lambda: span_s("boxes.vote_box_vps"),
        "boxes.adjust_box_s": lambda: span_s("boxes.adjust_box"),
        "boxes.adjust_fail_frac": adjust_fail_frac,
        "rectify.build_plane_rectifiers_s": lambda: span_s("rectify.build_plane_rectifiers"),
        "rectify.backproject_fail_frac": backproject_fail_frac,
        "rectify.merge_detections_s": lambda: span_s("rectify.merge_detections"),
        "rectify.merge_kept_frac": merge_kept_frac,
        "io.read_image_dir_s": lambda: per * sum(
            s.duration for t in both for s in t.named("io.read_image_dir")),
        "io.write_s": lambda: per * sum(
            s.duration for t in both for s in t.outermost("io.write")),
        "cli.cpu_util": lambda: cpu_util,
        "objmatch.group_purity": lambda: _grouping(tr, labels, fingerprint)[0],
        "objmatch.spurious_groups": spurious_groups,
        "guided.refine_accept_frac": refine_accept_frac,
        "guided.match_pair_self_s": lambda: self_s(ROOT_SPAN),
        "synth.generate_s": generate_s,
        "trace_overhead_frac": lambda: overhead,
    }

    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        gone = [tr.missing.get(n) or setup_tr.missing[n] for n in needs
                if n in tr.missing or n in setup_tr.missing]
        value, reason = None, ""
        if gone:
            reason = "missing: " + "; ".join(gone)
        else:
            # A layer whose call signature or result changed is reported,
            # not fatal: later refactors must still be able to run this.
            try:
                value = values[name]()
            except Exception as exc:  # noqa: BLE001
                reason = f"missing: cannot derive from the trace ({exc!r})"
            if value is None and not reason:
                reason = "missing: no calls to measure"
        out[name] = (value, unit, reason)
    return out
