"""Batch benchmark harness: corpus runs, bucketed aggregation, CSV reports."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .fr import FrParams, fr_run
from .graphs import DegenerateGraphError, Graph, GraphError, parse_edge_list, parse_graphml
from .layout import RunRecord
from .metrics import CSV_FIELDS, compute_metrics
from .render import csv_text
from .snb import SnbParams, _require_schedulable, compute_sync_param, snb_run

log = logging.getLogger(__name__)

ALGORITHMS = ("snb", "fr")

RECORD_FIELDS = [
    "graph_id",
    "algorithm",
    "seed",
    "n",
    "m",
    "iterations",
    "wall_time_total",
    "wall_time_per_iteration",
] + CSV_FIELDS

BUCKET_FIELDS = ["bucket_index", "algorithm", "count"] + [
    f"mean_{name}" for name in CSV_FIELDS
] + ["mean_wall_time_per_iteration"]


class CorpusError(ValueError):
    """No usable graph files in the corpus directory."""


@dataclass
class BucketSummary:
    """Per-metric means for one (vertex-count bucket, algorithm) group."""

    bucket_index: int
    algorithm: str
    count: int
    means: dict


def load_graph_file(path: Path) -> Graph:
    """Load a .graphml or edge-list graph file by extension (UTF-8, with or
    without a byte-order mark)."""
    text = Path(path).read_text(encoding="utf-8-sig")
    if Path(path).suffix.lower() in (".graphml", ".xml", ".gml"):
        return parse_graphml(text)
    return parse_edge_list(text)


def run_batch(
    g: Graph,
    algorithm: str,
    seeds,
    graph_id: str = "",
    total_multiplier: int = 20,
) -> list[RunRecord]:
    """Run one algorithm on one graph for `seeds`, label each record
    `graph_id` and attach its metric scorecard.

    SnB's s is computed from `g` once for all the seeds.  The seeds run in
    the batches `layout.iterate` sizes.  Only the iteration loop is timed;
    parsing and metrics stay outside the clock so per-iteration times
    isolate the layout work itself.  A record's wall times are its batch
    loop's divided by the batch's number of seeds.
    """
    if algorithm == "snb":
        params = SnbParams(sync_param=compute_sync_param(g), total_multiplier=total_multiplier)
        records = snb_run(g, params, seeds=seeds)
    elif algorithm == "fr":
        records = fr_run(g, FrParams(total_multiplier=total_multiplier), seeds=seeds)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    for record in records:
        record.graph_id = graph_id
        record.metrics = compute_metrics(g, record.final_layout)
    return records


def run_one(g: Graph, algorithm: str, seed: int, graph_id: str = "") -> RunRecord:
    """`run_batch` for the one seed `seed`: its labelled, scored record."""
    (record,) = run_batch(g, algorithm, (seed,), graph_id)
    return record


def run_corpus(
    directory,
    algorithms=ALGORITHMS,
    seeds_per_graph: int = 1,
    total_multiplier: int = 20,
    *,
    workers: int = 1,
) -> list[RunRecord]:
    """One RunRecord per (graph file, algorithm, seed), run one batch at a
    time so each record's wall times are uncontended.

    Each (graph, algorithm) is one `run_batch` call over seeds
    0..seeds_per_graph-1, so SnB's s is computed once per graph.
    Unreadable or unparseable files, and graphs SnB cannot schedule (n < 2
    or m < 1), are skipped with a logged warning, whatever `algorithms`
    asks for, so every algorithm sees the same graphs.  Records
    come back sorted by (graph_id, algorithm, seed), so the record set is
    deterministic.  `workers` is kept only for callers that still pass
    `workers=1` (the benchmark's `perfbench/one_pass.py`); any other value
    raises ValueError.
    """
    if workers != 1:
        raise ValueError(f"run_corpus runs its jobs serially; workers must be 1, got {workers}")
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"not a directory: {directory}")
    graphs = []
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        try:
            g = load_graph_file(path)
            _require_schedulable(g)
        except (OSError, GraphError, DegenerateGraphError, UnicodeDecodeError) as exc:
            log.warning("skipping %s: %s", path.name, exc)
            continue
        graphs.append((path.name, g))
    if not graphs:
        raise CorpusError(f"no usable graph files in {directory}")
    records = []
    for gid, g in graphs:
        for alg in algorithms:
            records += run_batch(g, alg, range(seeds_per_graph), gid, total_multiplier)
    # ALGORITHMS is ("snb", "fr"), which is not sorted order.
    records.sort(key=lambda r: (r.graph_id, r.algorithm, r.seed))
    return records


def bucketize(records: list[RunRecord]) -> list[BucketSummary]:
    """Group records into vertex-count buckets floor(n/5) and average each
    metric per algorithm, matching the six comparison panels."""
    if not records:
        raise ValueError("no records to bucketize")
    groups: dict[tuple[int, str], list[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.n // 5, r.algorithm), []).append(r)
    summaries = []
    for (bucket, alg), recs in sorted(groups.items()):
        means = {}
        for name in CSV_FIELDS:
            vals = [
                getattr(r.metrics, name)
                for r in recs
                if r.metrics is not None and getattr(r.metrics, name) is not None
            ]
            means[f"mean_{name}"] = sum(vals) / len(vals) if vals else None
        means["mean_wall_time_per_iteration"] = sum(
            r.wall_time_per_iteration for r in recs
        ) / len(recs)
        summaries.append(
            BucketSummary(bucket_index=bucket, algorithm=alg, count=len(recs), means=means)
        )
    return summaries


# ---------------------------------------------------------------------------
# CSV output


def records_to_csv(records: list[RunRecord]) -> str:
    """One row per record in RECORD_FIELDS order; a record without metrics
    gets an empty cell for each metric."""
    run_fields = RECORD_FIELDS[: -len(CSV_FIELDS)]
    no_metrics = [None] * len(CSV_FIELDS)
    return csv_text(
        RECORD_FIELDS,
        (
            [getattr(r, name) for name in run_fields]
            + (no_metrics if r.metrics is None else list(r.metrics.scalar_row().values()))
            for r in records
        ),
    )


def buckets_to_csv(summaries: list[BucketSummary]) -> str:
    """One row per bucket in BUCKET_FIELDS order; a None mean is an empty cell."""
    return csv_text(
        BUCKET_FIELDS,
        (
            [s.bucket_index, s.algorithm, s.count, *(s.means[name] for name in BUCKET_FIELDS[3:])]
            for s in summaries
        ),
    )
