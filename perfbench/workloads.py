"""Workload set-up, timed passes and output checks.

objguide is driven only through its public API (``guided.match_pair``,
``io``, ``synth``) and its CLI (``cli.main``).  Functions are called through
their modules, never through names bound here, so that the tracer's module
patches see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from objguide import cli, guided, synth
from objguide import io as ogio

import scenes

MODE = "(O+R)A"
JOBS = 2
CLI_MIN_SEG_LEN = 20.0  # the CLI's --min-seg-len default, used to read dirs alike


@dataclass(frozen=True)
class WorkloadSpec:
    n_scenes: int  # the pool: scene seeds 0 .. n_scenes - 1
    build: object  # scene seed -> synth.Scene
    retrieval: bool  # batch CLI run with retrieval false positives


def _city_block(k):
    return synth.generate(scenes.city_block(k))


def _batch_scene(k):
    return synth.generate(scenes.two_facade(k, np.random.default_rng([k, 2])))


WORKLOADS = {
    "city-block": WorkloadSpec(3, _city_block, False),
    "dense-features": WorkloadSpec(2, scenes.dense_features, False),
    "batch-retrieval": WorkloadSpec(3, _batch_scene, True),
}


@dataclass
class Pair:
    """One image pair: scene indices per side; related when same scene."""

    k1: int
    k2: int
    dir1: str
    dir2: str
    out: str
    img1: object = None
    img2: object = None

    @property
    def related(self) -> bool:
        return self.k1 == self.k2


@dataclass
class Bench:
    spec: WorkloadSpec
    root: str
    scenes: list
    pairs: list[Pair]
    pairs_file: str
    # image fingerprint -> (box planes, boxes (n, 4) xmin ymin xmax ymax, scene index)
    labels: dict = field(default_factory=dict)


def fingerprint(img) -> tuple:
    """Content key of an image: noisy box coordinates differ between scenes."""
    b = img.boxes[0]
    return (img.width, img.height, len(img.boxes), len(img.features),
            b.xmin, b.ymin, b.xmax, b.ymax)


def setup(spec: WorkloadSpec, seed: int, root: str) -> Bench:
    """Generate the scenes, write their image dirs and the pair list.

    The run seed relabels every image's features and orders the pairs.
    """
    shutil.rmtree(root, ignore_errors=True)
    rng = np.random.default_rng(seed)
    built = [scenes.relabel_features(spec.build(k), rng) for k in range(spec.n_scenes)]
    dirs = []
    for k, sc in enumerate(built):
        da = os.path.join(root, f"scene{k}", "a")
        db = os.path.join(root, f"scene{k}", "b")
        ogio.write_image_dir(da, sc.img_a)
        ogio.write_image_dir(db, sc.img_b)
        dirs.append((da, db))

    n = spec.n_scenes
    index = [(k, k) for k in range(n)]
    if spec.retrieval:
        # Each image meets its partner and two images of other scenes.
        index += [(k, (k + d) % n) for d in (1, 2) for k in range(n)]
    index = [index[int(p)] for p in rng.permutation(len(index))]
    pairs = [
        Pair(k1, k2, dirs[k1][0], dirs[k2][1], os.path.join(root, "out", f"pair{p}"))
        for p, (k1, k2) in enumerate(index)
    ]
    pairs_file = os.path.join(root, "pairs.txt")
    with open(pairs_file, "w", encoding="ascii", newline="\n") as fh:
        for p in pairs:
            fh.write(f"{p.dir1} {p.dir2} {p.out}\n")
    if not spec.retrieval:
        for p in pairs:
            p.img1 = ogio.read_image_dir(p.dir1)
            p.img2 = ogio.read_image_dir(p.dir2)

    bench = Bench(spec=spec, root=root, scenes=built, pairs=pairs, pairs_file=pairs_file)
    for k, sc in enumerate(built):
        for img, planes in ((sc.img_a, sc.gt.box_plane_a), (sc.img_b, sc.gt.box_plane_b)):
            key = fingerprint(img)
            if key in bench.labels:
                raise RuntimeError(f"two benchmark images share fingerprint {key}")
            boxes = np.array([[b.xmin, b.ymin, b.xmax, b.ymax] for b in img.boxes])
            bench.labels[key] = (np.array(planes), boxes, k)
    return bench


# -- checks and scoring -----------------------------------------------------

def check_matchset(ms, img1, img2) -> list[str]:
    """Ids valid, matches one-to-one, each group's box pairs one-to-one."""
    problems = []
    ids1 = {f.id for f in img1.features}
    ids2 = {f.id for f in img2.features}
    seen1, seen2 = set(), set()
    for m in ms.matches:
        if m.i not in ids1 or m.j not in ids2:
            problems.append(f"match ({m.i}, {m.j}) names an unknown feature id")
        if m.i in seen1 or m.j in seen2:
            problems.append(f"match ({m.i}, {m.j}) reuses a feature")
        seen1.add(m.i)
        seen2.add(m.j)
        if not -1 <= m.group_id < len(ms.groups):
            problems.append(f"match ({m.i}, {m.j}) has group id {m.group_id}")
        if not math.isfinite(m.sim):
            problems.append(f"match ({m.i}, {m.j}) has similarity {m.sim}")
    for gid, g in enumerate(ms.groups):
        a = [i for i, _ in g.pairs]
        b = [j for _, j in g.pairs]
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            problems.append(f"group {gid} pairs are not one-to-one")
        if min(a + b, default=0) < 0:
            problems.append(f"group {gid} has a negative box index")
        if not np.all(np.isfinite(g.H.m)):
            problems.append(f"group {gid} homography is not finite")
    return problems


def digest(ms) -> str:
    """Exact fingerprint of a MatchSet: matches, homographies and pairs."""
    h = hashlib.sha256()
    for m in ms.matches:
        h.update(f"{m.i} {m.j} {m.sim!r} {m.group_id}\n".encode())
    for g in ms.groups:
        h.update(np.ascontiguousarray(g.H.m).tobytes())
        h.update(f"{g.pairs} {g.refined}\n".encode())
    return h.hexdigest()


@dataclass
class Tally:
    """Pooled precision/recall over a list of pairs."""

    correct: int = 0
    matches: int = 0
    truth: int = 0

    def add(self, bench: Bench, pair: Pair, ms) -> None:
        if pair.related:
            sc = bench.scenes[pair.k1]
            rep = synth.score(ms, pair.img2.features, sc.gt)
            self.correct += rep.n_correct
            self.truth += len(sc.gt.feature_pairs)
        self.matches += len(ms.matches)

    @property
    def precision(self) -> float:
        return self.correct / self.matches if self.matches else 1.0

    @property
    def recall(self) -> float:
        return self.correct / self.truth if self.truth else 0.0


# -- timed passes -----------------------------------------------------------

@dataclass
class PassResult:
    """What one or more passes over a workload's pair list produced."""

    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    pass_walls: list[float] = field(default_factory=list)  # seconds per pass
    pair_times: list[float] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)  # first pass, per pair
    first_outputs: list = field(default_factory=list)  # first pass MatchSets
    tally: Tally = field(default_factory=Tally)
    problems: list[str] = field(default_factory=list)


def _report_error(what: str) -> None:
    print(f"error in {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_sequential(bench: Bench, seconds: float | None) -> PassResult:
    """Match the pairs one after another, in passes over the whole list.

    Passes repeat until `seconds` have passed; with None there is one pass.
    Precision and recall come from the first pass; later passes must repeat
    its outputs exactly.  A pass's wall time is the sum of its match_pair
    calls, so the output checks stay out of it.
    """
    res = PassResult()
    cpu0 = time.process_time()
    t_begin = time.perf_counter()
    while True:
        first = not res.pass_walls
        pass_wall = 0.0
        for k, pair in enumerate(bench.pairs):
            t0 = time.perf_counter()
            try:
                ms, _report = guided.match_pair(pair.img1, pair.img2, mode=MODE)
            except Exception:
                _report_error(f"match_pair on {pair.dir1} {pair.dir2}")
                ms = None
            elapsed = time.perf_counter() - t0
            pass_wall += elapsed
            res.pair_times.append(elapsed)
            res.attempted += 1
            d = None
            if ms is None:
                res.failed += 1
            else:
                res.problems += check_matchset(ms, pair.img1, pair.img2)
                d = digest(ms)
            if first:
                res.digests.append(d)
                res.first_outputs.append(ms)
                if ms is not None:
                    res.tally.add(bench, pair, ms)
            elif d != res.digests[k]:
                res.problems.append(
                    f"determinism: pair {k} changed output on pass {len(res.pass_walls) + 1}"
                )
        res.pass_walls.append(pass_wall)
        if seconds is None or time.perf_counter() - t_begin >= seconds:
            break
    res.wall = time.perf_counter() - t_begin
    res.cpu = time.process_time() - cpu0
    return res


def _cli_args(bench: Bench) -> list[str]:
    return ["match", "--pairs-file", bench.pairs_file, "--jobs", str(JOBS), "--mode", MODE]


def _read_outputs(bench: Bench) -> list[bytes | None]:
    out = []
    for p in bench.pairs:
        blob = b""
        for name in ("matches.txt", "groups.txt"):
            try:
                with open(os.path.join(p.out, name), "rb") as fh:
                    blob += fh.read()
            except FileNotFoundError:
                blob = None
                break
        out.append(blob)
    return out


def run_batch(bench: Bench, seconds: float | None) -> tuple[PassResult, list]:
    """Run the CLI batch over the pair list, repeating until `seconds` passed.

    Returns the pass result and the output files of the first pass; every
    later pass must write the same bytes.
    """
    res = PassResult()
    n = len(bench.pairs)
    first = None
    t_begin = time.perf_counter()
    while first is None or (seconds is not None and time.perf_counter() - t_begin < seconds):
        shutil.rmtree(os.path.join(bench.root, "out"), ignore_errors=True)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdio.StringIO()):
                code = cli.main(_cli_args(bench))
        except Exception:
            _report_error("objguide match --pairs-file")
            code = None
        res.pass_walls.append(time.perf_counter() - t0)
        res.wall += res.pass_walls[-1]
        res.cpu += time.process_time() - cpu0
        res.attempted += n
        if code != 0:
            res.failed += n
            res.problems.append(f"CLI batch exit code {code}")
        outputs = _read_outputs(bench)
        if first is None:
            first = outputs
        elif outputs != first:
            res.problems.append("determinism: CLI batch output changed between passes")
    return res, first


def reference_check(bench: Bench, outputs: list, seconds: float | None) -> PassResult:
    """In-process match_pair on the same dirs must equal each matches.txt.

    The pairs run one after another, in passes for `seconds` as in
    run_sequential; the result scores the batch and gives its pair latency.
    """
    for p in bench.pairs:
        p.img1 = ogio.read_image_dir(p.dir1, min_seg_len=CLI_MIN_SEG_LEN)
        p.img2 = ogio.read_image_dir(p.dir2, min_seg_len=CLI_MIN_SEG_LEN)
    res = run_sequential(bench, seconds)
    for p, blob, ms in zip(bench.pairs, outputs, res.first_outputs):
        if blob is None:
            res.problems.append(f"{p.out}: CLI wrote no matches.txt / groups.txt")
        elif ms is not None and ogio.read_matches(os.path.join(p.out, "matches.txt")) != ms.matches:
            res.problems.append(f"{p.out}/matches.txt differs from in-process match_pair")
    return res
