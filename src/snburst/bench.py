"""Batch benchmark harness: corpus runs, bucketed aggregation, CSV reports."""

from __future__ import annotations

import csv
import io
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .fr import FrParams, fr_run
from .graphs import Graph, GraphError, parse_edge_list, parse_graphml
from .layout import DegenerateGraphError, RunRecord
from .metrics import CSV_FIELDS, compute_metrics
from .snb import SnbParams, compute_sync_param, snb_run

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
    """Load a .graphml or edge-list graph file by extension."""
    text = Path(path).read_text(encoding="utf-8")
    if Path(path).suffix.lower() in (".graphml", ".xml", ".gml"):
        return parse_graphml(text)
    return parse_edge_list(text)


def run_one(
    g: Graph,
    algorithm: str,
    seed: int,
    graph_id: str = "",
    total_multiplier: int = 20,
) -> RunRecord:
    """Run one algorithm on one graph, label the record `graph_id` and
    attach the metric scorecard.

    Only the iteration loop is timed; parsing and metrics stay outside the
    clock so per-iteration times isolate the layout work itself.
    """
    if algorithm == "snb":
        params = SnbParams(
            sync_param=compute_sync_param(g), seed=seed, total_multiplier=total_multiplier
        )
        record = snb_run(g, params)
    elif algorithm == "fr":
        record = fr_run(g, FrParams(seed=seed, total_multiplier=total_multiplier))
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    record.graph_id = graph_id
    record.metrics = compute_metrics(g, record.final_layout)
    return record


def run_corpus(
    directory,
    algorithms=ALGORITHMS,
    seeds_per_graph: int = 1,
    total_multiplier: int = 20,
    workers: int = 1,
) -> list[RunRecord]:
    """One RunRecord per (graph file, algorithm, seed).

    Unreadable or unparseable files, and graphs with n < 2 or m < 1 (on
    which every job would fail), are skipped with a logged warning.
    Records come back sorted by (graph_id, algorithm, seed) regardless of
    worker count, so the record set is deterministic.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"not a directory: {directory}")
    graphs = []
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        try:
            g = load_graph_file(path)
            if g.n < 2 or g.m < 1:
                raise DegenerateGraphError(f"needs n >= 2 and m >= 1, got n={g.n}, m={g.m}")
        except (OSError, GraphError, DegenerateGraphError, UnicodeDecodeError) as exc:
            log.warning("skipping %s: %s", path.name, exc)
            continue
        graphs.append((path.name, g))
    if not graphs:
        raise CorpusError(f"no usable graph files in {directory}")
    jobs = [
        (gid, g, alg, seed)
        for gid, g in graphs
        for alg in algorithms
        for seed in range(seeds_per_graph)
    ]

    def _run(job):
        gid, g, alg, seed = job
        return run_one(g, alg, seed, graph_id=gid, total_multiplier=total_multiplier)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run, jobs))
    else:
        records = [_run(job) for job in jobs]
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
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in records:
        row = {
            "graph_id": r.graph_id,
            "algorithm": r.algorithm,
            "seed": r.seed,
            "n": r.n,
            "m": r.m,
            "iterations": r.iterations,
            "wall_time_total": r.wall_time_total,
            "wall_time_per_iteration": r.wall_time_per_iteration,
        }
        if r.metrics is not None:
            row.update(r.metrics.scalar_row())
        writer.writerow(row)
    return buf.getvalue()


def buckets_to_csv(summaries: list[BucketSummary]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BUCKET_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(
        {"bucket_index": s.bucket_index, "algorithm": s.algorithm, "count": s.count, **s.means}
        for s in summaries
    )
    return buf.getvalue()
