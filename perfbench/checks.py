"""Correctness checks made by every benchmark run.

Each check returns a list of problems; an empty list means it passed.  A job
with a problem counts as failed.

- `check_record`: a final layout is finite, has n rows and sits at iteration
  20n; an SnB run's sync-end layout sits at iteration ceil(s*n).
- `RepeatCheck`: a repeated (graph, algorithm, seed) job gives a bitwise-equal
  final layout.
- `check_step`: `snb_step` from a stored layout matches the stored next layout
  to STEP_TOLERANCE.  Not bitwise, so a rewrite of the step that changes the
  order of floating-point operations stays admissible.
- `check_metrics`: `compute_metrics` on a stored layout reproduces the stored
  crossing count exactly and the other scalars to METRIC_RTOL.

The stored cases live in `reference/` and are written by `make_reference.py`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOTAL_MULTIPLIER = 20
STEP_TOLERANCE = 1e-12
METRIC_RTOL = 1e-9
METRIC_ATOL = 1e-12


def check_record(record, sync_end_iteration: int) -> list[str]:
    """Invariants of one RunRecord from the corpus pipeline."""
    job = f"{record.graph_id}/{record.algorithm}/seed {record.seed}"
    problems = []
    coords = np.asarray(record.final_layout.coords)
    total = TOTAL_MULTIPLIER * record.n
    if coords.shape != (record.n, 2) or not np.all(np.isfinite(coords)):
        problems.append(f"{job}: final layout is not a finite ({record.n}, 2) array")
    if record.iterations != total or record.final_layout.iteration != total:
        problems.append(
            f"{job}: {record.iterations} iterations, final layout at "
            f"{record.final_layout.iteration}; expected {total}"
        )
    if record.algorithm == "snb":
        sync = record.sync_end_layout
        if sync is None or sync.iteration != sync_end_iteration:
            got = None if sync is None else sync.iteration
            problems.append(f"{job}: sync-end layout at {got}, expected {sync_end_iteration}")
    if record.metrics is None:
        problems.append(f"{job}: no metrics attached")
    return problems


def job_digest(record) -> tuple[tuple, str]:
    """The job's (graph, algorithm, seed) key and a SHA-256 of its final layout."""
    key = (record.graph_id, record.algorithm, record.seed)
    coords = np.ascontiguousarray(record.final_layout.coords, dtype=np.float64)
    return key, hashlib.sha256(coords.tobytes()).hexdigest()


class RepeatCheck:
    """Remembers each job's first layout digest and flags any later difference."""

    def __init__(self):
        self.digests: dict[tuple, str] = {}

    def __call__(self, key: tuple, digest: str) -> list[str]:
        key = tuple(key)
        if self.digests.setdefault(key, digest) != digest:
            return [f"{'/'.join(map(str, key))}: final layout differs from the first run's"]
        return []


def load_cases(name: str) -> list[dict]:
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


def _graph(case, snburst):
    return snburst.Graph(case["n"], tuple(tuple(e) for e in case["edges"]))


def check_step(case, snburst) -> list[str]:
    g = _graph(case, snburst)
    prev = snburst.Layout(np.array(case["layout"]), case["iteration"])
    params = snburst.SnbParams(sync_param=case["sync_param"], seed=case["seed"])
    out = snburst.snb_step(g, prev, case["magnitude_prev"], params)
    problems = []
    if out.iteration != case["iteration"] + 1:
        problems.append(f"{case['name']}: step ended at iteration {out.iteration}")
    err = float(np.max(np.abs(out.coords - np.array(case["expected"]))))
    if not err <= STEP_TOLERANCE:
        problems.append(f"{case['name']}: step differs from the reference by {err:.3g}")
    return problems


def check_metrics(case, snburst) -> list[str]:
    g = _graph(case, snburst)
    row = snburst.compute_metrics(g, snburst.Layout(np.array(case["layout"]))).scalar_row()
    problems = []
    for name, want in case["expected"].items():
        got = row[name]
        if name == "crossings" or want is None or got is None:
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=METRIC_RTOL, abs_tol=METRIC_ATOL)
        if not ok:
            problems.append(f"{case['name']}: {name} = {got!r}, reference {want!r}")
    return problems


REFERENCE_CHECKS = (("step.json", check_step), ("metrics.json", check_metrics))
