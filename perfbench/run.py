"""snburst benchmark: one workload, timed end to end, with correctness checks.

From the root of a checkout:

    python3 perfbench/run.py --workload paper-corpus --seed 1 --seconds 30 --trace 0

A run times its set-up (a fresh interpreter that imports snburst and writes
the workload's graph files) several times, and runs as many passes as fit in
`--seconds`, each in a fresh process (one_pass.py), so that every pass pays
what a one-shot `snburst bench` pays:

    files -> run_corpus (load, betweenness, layout, metrics; workers=1)
          -> bucketize -> records.csv, buckets.csv -> SVG and CSV per layout

Every job is checked (see checks.py), a job repeated across passes must give
a bitwise-equal layout, and the stored reference cases are re-run at the end.
The last line of standard output is one JSON object: with `--trace 0` it
holds the end-to-end metrics, with `--trace 1` the per-layer metrics from
spans recorded around each layer call (see spans.py).  A traced run
alternates traced and untraced passes and reports the difference of their
median wall times as the tracing overhead.

The environment and every sample go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from workloads import ROOT, SEEDS_PER_GRAPH, MissingProgramError, import_snburst

HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up is timed SETUP_FIRST times before the first pass and SETUP_BETWEEN
# times after each pass, so its samples span the run as the passes do: the
# shared machine's speed drifts over seconds, and a burst of back-to-back
# samples would see only one moment of it.
SETUP_FIRST = 4
SETUP_BETWEEN = 3
# Two measured passes at least: the repeat check needs a job run twice.
MIN_PASSES = 2
PASS_TIMEOUT_S = 150


def is_traced(index: int, trace: int) -> bool:
    """A traced run alternates traced and untraced passes, traced first."""
    return bool(trace) and index % 2 == 0


def time_setup(workload: str, seed: int, out: Path) -> float:
    """Wall time of one fresh set-up process that writes the corpus to `out`."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", str(out),
    ]
    start = time.perf_counter()
    # A blocking wait: with a timeout, subprocess polls in steps of up to
    # 50 ms, which would quantize the measured time.
    code = subprocess.Popen(cmd).wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def run_child_pass(workload: str, corpus: Path, out: Path, traced: bool) -> dict:
    """One pass in a fresh process (one_pass.py); returns its JSON result."""
    cmd = [
        sys.executable,
        str(HERE / "one_pass.py"),
        "--workload", workload,
        "--corpus", str(corpus),
        "--out", str(out),
        "--trace", str(int(traced)),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "git_commit": "unknown",
        "src_sha256": _tree_digest(ROOT / "src"),
        "seed": seed,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if git.returncode == 0:
            env["git_commit"] = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def _tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*.py") if p.is_file()):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# Per-layer metrics taken from the traced passes (medians), with their units.
LAYER_UNITS = {
    "graphs.load_s": "s",
    "graphs.betweenness_s": "s",
    "snb.run_s": "s",
    "snb.iterations": "count",
    "snb.pair_evals": "count",
    "snb.pair_rate": "1/s",
    "snb.bytes_computed": "bytes",
    "fr.run_s": "s",
    "fr.iterations": "count",
    "fr.pair_rate": "1/s",
    "metrics.compute_s": "s",
    "metrics.self_s": "s",
    "metrics.crossings_s": "s",
    "metrics.adjacent_angle_s": "s",
    "metrics.pair_distance_s": "s",
    "metrics.rss_growth_mb": "MB",
    "metrics.edge_pairs_tested": "count",
    "metrics.crossings_found": "count",
    "bench.corpus_s": "s",
    "bench.self_s": "s",
    "bench.bucketize_s": "s",
    "bench.csv_s": "s",
    "bench.jobs": "count",
    "render.svg_s": "s",
    "render.csv_s": "s",
}


def run(args, snburst, work: Path) -> int:
    setup_times = []

    def set_up(count: int) -> None:
        for _ in range(count):
            out = work / f"corpus-{len(setup_times)}"
            setup_times.append(time_setup(args.workload, args.seed, out))

    set_up(SETUP_FIRST)
    corpus = work / "corpus-0"
    n_graphs = sum(1 for p in corpus.iterdir() if p.is_file())
    jobs_per_pass = n_graphs * len(snburst.bench.ALGORITHMS) * SEEDS_PER_GRAPH[args.workload]

    repeat = checks.RepeatCheck()
    attempted = failed = 0
    passes = []  # {"traced": bool, "wall_s": ..., "peak_rss_mb": ..., figures}
    all_spans = []
    # Seconds spent in pass processes, and the slowest of them, to see
    # whether another pass fits in --seconds.  Set-up samples do not count.
    spent = longest = 0.0
    while len(passes) < MIN_PASSES or spent + longest <= args.seconds:
        traced = is_traced(len(passes), args.trace)
        attempted += jobs_per_pass
        began = time.perf_counter()
        try:
            child = run_child_pass(args.workload, corpus, work / "out", traced)
        except Exception:
            traceback.print_exc()
            failed += jobs_per_pass
            break
        took = time.perf_counter() - began
        spent += took
        longest = max(longest, took)
        for job in child["jobs"]:
            problems = job["problems"] + repeat(job["key"], job["digest"])
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            failed += bool(problems)
        failed += max(0, jobs_per_pass - len(child["jobs"]))
        all_spans += [{**span, "pass_index": len(passes)} for span in child["spans"]]
        passes.append({
            "traced": traced,
            "wall_s": child["wall_s"],
            "peak_rss_mb": child["peak_rss_mb"],
            **child["figures"],
        })
        set_up(SETUP_BETWEEN)

    for file_name, check in checks.REFERENCE_CHECKS:
        for case in checks.load_cases(file_name):
            attempted += 1
            try:
                problems = check(case, snburst)
            except Exception:
                traceback.print_exc()
                problems = [f"{case['name']}: raised"]
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            failed += bool(problems)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: too few passes completed", file=sys.stderr)
        return 1
    median = statistics.median
    if args.trace == 0:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "wall_s": (median(p["wall_s"] for p in untraced), "s"),
            "snb_iter_us": (median(p["snb_iter_us"] for p in untraced), "us"),
            "fr_iter_us": (median(p["fr_iter_us"] for p in untraced), "us"),
            "peak_rss_mb": (median(p["peak_rss_mb"] for p in untraced), "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = {
            name: (median(p[name] for p in traced), unit) for name, unit in LAYER_UNITS.items()
        }
        metrics["bench.jobs_failed"] = (failed, "count")
        metrics["trace.overhead_s"] = (
            median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in untraced),
            "s",
        )

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_s_samples": setup_times,
        "passes": passes,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in all_spans)
    print(json.dumps({"environment": record["environment"]}))
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced + "
        f"{len(traced)} traced passes; untraced wall_s samples "
        + ", ".join(f"{p['wall_s']:.3f}" for p in untraced)
    )
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one snburst benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS_PER_GRAPH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        snburst = import_snburst()
    except MissingProgramError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, snburst, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
