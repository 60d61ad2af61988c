"""Span tracing of objguide's public functions, installed from outside the package.

The tracer replaces module attributes of the loaded ``objguide`` modules
with wrappers and restores them afterwards; the package source is never
edited.  A wrapped function records a span (name, start, end, parent span,
root ``match_pair`` span, thread) on a thread-local stack.  Hot leaf calls
are only counted.  A name that no longer exists is recorded as missing
instead of failing, so the benchmark keeps running after a refactor.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT_SPAN = "guided.match_pair"

# Public functions timed as spans: "<module>.<function>".  A span wrapper
# replaces every reference to the function object in any objguide module,
# because callers import these names directly (``from .objmatch import
# greedy_match``).
SPANS = (
    "guided.match_pair",
    "vanishing.estimate_vps",
    "boxes.vote_box_vps",
    "boxes.adjust_box",
    "rectify.build_plane_rectifiers",
    "rectify.backproject_quad",
    "rectify.merge_detections",
    "objmatch.greedy_match",
    "objmatch.box_descriptor",
    "guided.refine_homography",
    "guided.guided_match",
    "guided.additional_matches",
    "io.read_image_dir",
    "io.write_image_dir",
    "io.write_matches",
    "io.write_groups",
    "synth.generate",
)

# Leaf calls that are counted, not timed.  Only the reference held by the
# named module is replaced, so the count is of calls made by that module.
COUNTS = (
    "objmatch.quad_iou",
    "objmatch.hypothesis",
)


@dataclass
class Span:
    name: str
    sid: int
    parent: int | None
    root: int | None
    thread: int
    start: float
    end: float
    args: tuple
    result: object = None
    raised: bool = False
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Collects spans and counts in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self.missing: dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(
                name=name,
                sid=next(tracer._ids),
                parent=parent.sid if parent else None,
                root=parent.root if parent else None,
                thread=threading.get_ident(),
                start=0.0,
                end=0.0,
                args=args,
            )
            if name == ROOT_SPAN and span.root is None:
                span.root = span.sid
            stack.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children.append(span)
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "objguide" or key.startswith("objguide."))
        ]
        for qual in SPANS:
            fn = self._lookup(qual)
            if fn is None:
                continue
            wrapped = self._span_wrapper(qual, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)
        for qual in COUNTS:
            fn = self._lookup(qual)
            if fn is None:
                continue
            mod_name, attr = qual.rsplit(".", 1)
            self._patch(sys.modules[f"objguide.{mod_name}"], attr, self._count_wrapper(qual, fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _lookup(self, qual: str):
        mod_name, attr = qual.rsplit(".", 1)
        try:
            mod = importlib.import_module(f"objguide.{mod_name}")
        except ImportError as exc:
            self.missing[qual] = f"module objguide.{mod_name} not importable: {exc}"
            return None
        fn = getattr(mod, attr, None)
        if not callable(fn):
            self.missing[qual] = f"objguide.{qual} not found"
            return None
        return fn

    def _patch(self, mod, attr: str, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def dump(self, path: str) -> None:
        """Write spans and counts as JSON (times in seconds from the first span)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [
            [s.name, s.sid, s.parent, s.root, s.thread, s.start - t0, s.end - t0, s.raised]
            for s in sorted(self.spans, key=lambda s: s.sid)
        ]
        doc = {
            "columns": ["name", "id", "parent", "root", "thread", "start", "end", "raised"],
            "spans": rows,
            "counts": self.counts,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    # -- queries ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def outermost(self, prefix: str) -> list[Span]:
        """Spans whose name starts with prefix and whose parent does not."""
        by_id = {s.sid: s for s in self.spans}
        return [
            s for s in self.spans
            if s.name.startswith(prefix)
            and not (s.parent in by_id and by_id[s.parent].name.startswith(prefix))
        ]
