"""In-memory spans recorded around calls into snburst's layers.

The benchmark does not change the program: it replaces a layer function's
module attribute with a wrapper that records a span, for as long as a
`Recorder.patched` block is open, and then puts the original back.  Every
span has a name, start, end and its parent span.
Spans stay in memory until the pass ends and hands them to the run.

Each patch names the module attribute the caller looks up at call time, e.g.
`run_one` in `snburst.bench` calls `snb_run` through the `snburst.bench`
namespace, so that is the attribute replaced.
"""

from __future__ import annotations

import importlib
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name).  A span name is `<layer>.<call>`.  Untraced
# passes install only TIMED_PATCHES, which time the layout runs from outside.
TIMED_PATCHES = (
    ("snburst.bench", "snb_run", "snb.run"),
    ("snburst.bench", "fr_run", "fr.run"),
)
TRACED_PATCHES = TIMED_PATCHES + (
    ("snburst.bench", "load_graph_file", "graphs.load"),
    ("snburst.snb", "betweenness", "graphs.betweenness"),
    ("snburst.bench", "compute_metrics", "metrics.compute"),
    ("snburst.metrics", "find_crossings", "metrics.crossings"),
    ("snburst.metrics", "avg_adjacent_angle", "metrics.adjacent_angle"),
    ("snburst.metrics", "min_pair_distance_scaled", "metrics.pair_distance"),
    ("snburst.metrics", "vertex_distribution", "metrics.pair_distance"),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    # Peak resident set size of the process when the span opened and closed.
    maxrss_start_kb: int = 0
    maxrss_end_kb: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one benchmark run (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            start=time.perf_counter(),
            maxrss_start_kb=_maxrss_kb(),
        )
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.maxrss_end_kb = _maxrss_kb()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self, patches):
        """Install span wrappers for `patches`, restoring the originals on exit.

        A missing attribute raises AttributeError, so a renamed layer function
        fails the run instead of reading zero.
        """
        saved = []
        try:
            for module_name, attr, name in patches:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def total(spans, prefix: str) -> float:
    """Summed duration of spans whose name is `prefix` or starts with `prefix.`."""
    return sum(s.duration for s in spans if s.name == prefix or s.name.startswith(prefix + "."))


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its direct children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out
