"""Steadiness check: back-to-back sets of benchmark runs, judged by the bounds.

From the root of a checkout:

    python3 perfbench/steady.py --runs 10 --sets 2

Each set runs every workload (or those given with --workload) once per seed,
seeds 1..runs, with the command and run length from BENCHMARK.json.  For every
end-to-end metric it prints the median and the quartile spread
(Q3 - Q1) / median of each set, and the change of the second set's median
against the first's, in the metric's worse direction.  A metric fails when a
spread or that change exceeds the metric's bound, except that the spread of
`setup_s` is shown but not judged: set-up is interpreter start-up and import,
whose level drifts from run to run on a shared machine, so only the move of
its median is bound.  The exit code is 1 if any metric fails or any run fails
its correctness checks, and every run's last line is kept in
`.perfbench_out/steady.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check that benchmark figures repeat.")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload per set")
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    log_path = ROOT / ".perfbench_out" / "steady.jsonl"
    log_path.parent.mkdir(exist_ok=True)
    values = {}  # (set, workload, metric) -> list of values
    ok = True
    with open(log_path, "a", encoding="utf-8") as log:
        for set_index in range(args.sets):
            for workload in workloads:
                for seed in range(1, args.runs + 1):
                    result = run_once(spec, workload, seed)
                    log.write(json.dumps({"set": set_index, "workload": workload,
                                          "seed": seed, **result}) + "\n")
                    log.flush()
                    if not result["correct"] or result["failed"]:
                        print(f"{workload} seed {seed}: correctness checks failed")
                        ok = False
                    for name, m in result["metrics"].items():
                        values.setdefault((set_index, workload, name), []).append(m["value"])

    print(f"{'workload':14} {'metric':12} {'bound':>6} {'median A':>12} {'spread A':>9}"
          f" {'median B':>12} {'spread B':>9} {'B vs A':>8}  verdict")
    for workload in workloads:
        for name, m in bounds.items():
            judge_spread = name != "setup_s"
            a = values[(0, workload, name)]
            row = [statistics.median(a), spread(a)]
            failures = ["spread A"] if judge_spread and row[1] > m["bound"] else []
            worse = None
            if args.sets == 2:
                b = values[(1, workload, name)]
                row += [statistics.median(b), spread(b)]
                if judge_spread and row[3] > m["bound"]:
                    failures.append("spread B")
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (row[2] - row[0]) / row[0]
                if worse > m["bound"]:
                    failures.append("median moved")
            ok = ok and not failures
            cells = " ".join(
                f"{row[i]:12.6g} {row[i + 1]:9.3f}" for i in range(0, len(row), 2)
            )
            moved = f"{worse:+8.3f}" if worse is not None else ""
            verdict = "ok" if not failures else "FAIL: " + ", ".join(failures)
            print(f"{workload:14} {name:12} {m['bound']:6.3g} {cells} {moved}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
