"""One measured pass of a benchmark workload, in a fresh process.

`run.py` starts this script once per pass, so every pass pays what a fresh
`snburst bench` process pays: cold caches, a cold allocator and first-use
page faults.  It is not meant to be run by hand, but it can be:

    python3 perfbench/one_pass.py --workload sparse-layout --corpus DIR --out DIR --trace 0

It runs the pipeline `snburst bench` takes, plus rendering:

    files -> run_corpus (load, betweenness, layout, metrics; workers=1)
          -> bucketize -> records.csv, buckets.csv -> SVG and CSV per layout

checks every job (see checks.py) and prints one JSON object as the last line
of standard output: the pass's wall time, its figures, the process's peak
RSS, each job's layout digest and problems, and (traced) its spans.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import checks
import spans
from workloads import SEEDS_PER_GRAPH, import_snburst

# Bytes the current SnB step moves per vertex pair (n^2 entries), computed
# from the n x n arrays `_step` reads (r) and writes (w); complex128 is 16 B
# and float64 8 B: difference matrix w16, squared parts and their sum r48 w24,
# sqrt r8 w8, min r8, division r24 w16, adjacency einsum r24, row sum r16.
SNB_STEP_BYTES_PER_PAIR = 192


def _no_span(name):
    return nullcontext()


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(snburst, corpus: Path, out: Path, seeds: int, graphs: dict, span):
    """The timed pipeline; returns (wall seconds, records)."""
    bench, render = snburst.bench, snburst.render
    start = time.perf_counter()
    with span("bench.corpus"):
        records = bench.run_corpus(corpus, seeds_per_graph=seeds, workers=1)
    with span("bench.bucketize"):
        summaries = bench.bucketize(records)
    with span("bench.csv"):
        (out / "records.csv").write_text(bench.records_to_csv(records), encoding="utf-8")
        (out / "buckets.csv").write_text(bench.buckets_to_csv(summaries), encoding="utf-8")
    for r in records:
        stem = out / f"{Path(r.graph_id).stem}_{r.algorithm}_{r.seed}"
        with span("render.svg"):
            svg = render.layout_to_svg(graphs[r.graph_id], r.final_layout)
            stem.with_suffix(".svg").write_text(svg, encoding="utf-8")
        with span("render.csv"):
            stem.with_suffix(".csv").write_text(render.layout_to_csv(r.final_layout), encoding="utf-8")
    return time.perf_counter() - start, records


def edge_pairs_tested(g) -> int:
    """Edge pairs the crossing test covers: all pairs minus those sharing a vertex."""
    return g.m * (g.m - 1) // 2 - sum(d * (d - 1) // 2 for d in map(len, g.adjacency))


def pass_figures(records, pass_spans, graphs, traced: bool) -> dict:
    """Per-pass numbers; layer figures only for traced passes."""
    total = spans.total
    fig = {}
    for alg in ("snb", "fr"):
        recs = [r for r in records if r.algorithm == alg]
        iters = sum(r.iterations for r in recs)
        run_s = total(pass_spans, f"{alg}.run")
        if not (iters and run_s):
            raise RuntimeError(f"no timed {alg}_run calls in this pass")
        pairs = sum(r.iterations * r.n * (r.n - 1) for r in recs)
        fig[f"{alg}_iter_us"] = run_s / iters * 1e6
        if traced:
            fig[f"{alg}.run_s"] = run_s
            fig[f"{alg}.iterations"] = iters
            fig[f"{alg}.pair_rate"] = pairs / run_s
            if alg == "snb":
                fig["snb.pair_evals"] = pairs
                fig["snb.bytes_computed"] = sum(
                    r.iterations * r.n * r.n * SNB_STEP_BYTES_PER_PAIR for r in recs
                )
    if traced:
        own = spans.self_times(pass_spans)
        for name in (
            "graphs.load", "graphs.betweenness",
            "metrics.compute", "metrics.crossings", "metrics.adjacent_angle",
            "metrics.pair_distance",
            "bench.corpus", "bench.bucketize", "bench.csv",
            "render.svg", "render.csv",
        ):
            fig[f"{name}_s"] = total(pass_spans, name)
        fig["metrics.self_s"] = own.get("metrics.compute", 0.0)
        fig["bench.self_s"] = own.get("bench.corpus", 0.0)
        # ru_maxrss only grows, so this is how far the metrics raised the peak.
        fig["metrics.rss_growth_mb"] = sum(
            s.maxrss_end_kb - s.maxrss_start_kb for s in pass_spans if s.name == "metrics.compute"
        ) / 1024
        fig["metrics.edge_pairs_tested"] = sum(edge_pairs_tested(graphs[r.graph_id]) for r in records)
        fig["metrics.crossings_found"] = sum(r.metrics.crossings for r in records)
        fig["bench.jobs"] = len(records)
    return fig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one measured benchmark pass.")
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS_PER_GRAPH))
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    snburst = import_snburst()
    importlib.import_module("snburst.render")  # not imported by the package itself

    # Parsing the files for the renderer warms only the parser's code.
    graphs = {p.name: snburst.bench.load_graph_file(p) for p in sorted(args.corpus.iterdir())}
    args.out.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder()
    tracing = bool(args.trace)
    with recorder.patched(spans.TRACED_PATCHES if tracing else spans.TIMED_PATCHES):
        wall, records = run_pass(
            snburst, args.corpus, args.out, SEEDS_PER_GRAPH[args.workload], graphs,
            recorder.span if tracing else _no_span,
        )
    peak_rss_mb = _maxrss_mb()
    figures = pass_figures(records, recorder.spans, graphs, tracing)

    # Checked after the timed pipeline, so the checks warm nothing it uses.
    sync_end = {
        gid: math.ceil(snburst.compute_sync_param(g) * g.n) for gid, g in graphs.items()
    }
    jobs = []
    for r in records:
        key, digest = checks.job_digest(r)
        jobs.append({
            "key": key,
            "digest": digest,
            "problems": checks.check_record(r, sync_end[r.graph_id]),
        })
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "figures": figures,
        "jobs": jobs,
        "spans": [asdict(s) for s in recorder.spans] if tracing else [],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
