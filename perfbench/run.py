"""objguide benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload city-block --seed 0 --seconds 25 --trace 0

Workloads: city-block, dense-features, batch-retrieval (see README.md).
With ``--trace 0`` the run times the workload with tracing off and prints the
end-to-end metrics; with ``--trace 1`` it runs the pair list once untraced and
once traced, requires identical outputs, and prints the per-layer metrics.
Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.

objguide is imported from ``src/`` of the checkout the script sits in; the
scratch files go to ``.perfbench_work/`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 3
REFERENCE_SECONDS = 8.0  # in-process reference passes of the batch workload

END_TO_END_UNITS = {
    "pairs_per_s": "1/s",
    "pair_s_p50": "s",
    "precision": "frac",
    "recall": "frac",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description="objguide benchmark")
    p.add_argument("--workload", required=True,
                   choices=("city-block", "dense-features", "batch-retrieval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_objguide() -> float:
    """Import objguide from this checkout's src/ and return the import time."""
    if not os.path.isfile(os.path.join(SRC, "objguide", "__init__.py")):
        raise SystemExit(f"error: no objguide package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import objguide.cli  # noqa: F401
    import objguide.synth  # noqa: F401

    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(objguide.cli.__file__))
    if where != os.path.join(SRC, "objguide"):
        raise SystemExit(f"error: objguide was imported from {where}, not {SRC}")
    return elapsed


def _source_hash() -> str:
    """Digest of the program and benchmark sources, keying determinism records."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "objguide"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _check_repeatable(workload: str, seed: int, values: dict) -> list[str]:
    """Deterministic results must equal those of earlier runs with this seed.

    Records live in .perfbench_work/digests, keyed by the source hash, so a
    changed program or benchmark starts a fresh record.
    """
    path = os.path.join(WORK, "digests", f"{workload}-seed{seed}.json")
    src = _source_hash()
    record = {"src": src, "values": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        if old.get("src") == src:
            record = old
    problems = [
        f"determinism: {key} was {record['values'][key]!r} in an earlier run, now {value!r}"
        for key, value in values.items()
        if key in record["values"] and record["values"][key] != value
    ]
    record["values"].update(values)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(wl, spec, seed, root, reps):
    times = []
    bench = None
    for _ in range(reps):
        t0 = time.perf_counter()
        bench = wl.setup(spec, seed, root)
        times.append(time.perf_counter() - t0)
    return bench, times


def _measure(wl, bench, seconds):
    """Untraced timing passes.

    For the batch, throughput comes from the CLI passes; pair latency,
    scores and digests from the in-process reference passes.
    """
    if bench.spec.retrieval:
        res, outputs = wl.run_batch(bench, seconds)
        check = wl.reference_check(bench, outputs, REFERENCE_SECONDS)
        res.pair_times = check.pair_times
        res.digests = check.digests
        res.tally = check.tally
        res.problems += check.problems
        return res
    return wl.run_sequential(bench, seconds)


def run_end_to_end(wl, args, import_s):
    spec = wl.WORKLOADS[args.workload]
    root = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    bench, setup_times = _timed_setup(wl, spec, args.seed, root, SETUP_REPS)
    res = _measure(wl, bench, args.seconds)
    tally = res.tally
    metrics = {
        "pairs_per_s": len(bench.pairs) / statistics.median(res.pass_walls),
        "pair_s_p50": statistics.median(res.pair_times),
        "precision": tally.precision,
        "recall": tally.recall,
        "ok_frac": 1.0 - res.failed / res.attempted,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes = {
        "pair_s_p50": f"n={len(res.pair_times)}",
        "ok_frac": f"(error_frac {res.failed / res.attempted:.4g} frac)",
        "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPS} set-ups",
        "pairs_per_s": f"median of {len(res.pass_walls)} passes of {len(bench.pairs)} pairs",
    }
    problems = res.problems + _check_repeatable(
        args.workload, args.seed, _deterministic(res),
    )
    out = {k: (v, END_TO_END_UNITS[k], notes.get(k, "")) for k, v in metrics.items()}
    return out, res.attempted, res.failed, problems, root


def _deterministic(res) -> dict:
    return {
        "matches": hashlib.sha256("".join(d or "-" for d in res.digests).encode()).hexdigest(),
        "precision": res.tally.precision,
        "recall": res.tally.recall,
        "correct": res.tally.correct,
        "matched": res.tally.matches,
    }


def run_traced(wl, args):
    import layers
    import tracing

    spec = wl.WORKLOADS[args.workload]
    root = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    with tracing.Tracer() as setup_tr:
        bench = wl.setup(spec, args.seed, root)

    # Untraced reference pass, then the same pass traced.
    if spec.retrieval:
        plain, plain_out = wl.run_batch(bench, None)
        with tracing.Tracer() as tr:
            traced, traced_out = wl.run_batch(bench, None)
        check = wl.reference_check(bench, traced_out, None)
        problems = plain.problems + traced.problems + check.problems
        if traced_out != plain_out:
            problems.append("tracing changed the CLI batch outputs")
        plain.digests, plain.tally = check.digests, check.tally
    else:
        plain = wl.run_sequential(bench, None)
        with tracing.Tracer() as tr:
            traced = wl.run_sequential(bench, None)
        problems = plain.problems + traced.problems
        if traced.digests != plain.digests:
            problems.append("tracing changed the match outputs")

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    tr.dump(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json"))
    workers = wl.JOBS if spec.retrieval else 1
    cpu_util = plain.cpu / (plain.wall * workers)
    overhead = sum(traced.pass_walls) / sum(plain.pass_walls) - 1.0
    out = layers.layer_metrics(
        tr, setup_tr, len(bench.pairs), bench.labels, wl.fingerprint, cpu_util, overhead
    )
    counts = {
        name: value for name, (value, unit, _r) in out.items()
        if unit != "s" and name not in ("cli.cpu_util", "trace_overhead_frac")
    }
    problems += _check_repeatable(
        args.workload, args.seed, {**_deterministic(plain), **counts},
    )
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return out, attempted, failed, problems, root


def main(argv=None) -> int:
    args = _parse(argv)
    import_s = _import_objguide()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as wl

    if args.trace:
        metrics, attempted, failed, problems, root = run_traced(wl, args)
    else:
        metrics, attempted, failed, problems, root = run_end_to_end(wl, args, import_s)
    shutil.rmtree(root, ignore_errors=True)

    for name, (value, unit, note) in metrics.items():
        shown = "MISSING" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} {shown} {unit} {note}".rstrip())
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
