"""Show that every correctness check of the benchmark passes on good data and
fires on a wrong reference.

    python3 perfbench/selftest.py

Prints one line per case and exits 1 if any check passed wrong data or
rejected good data.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import sys
from types import SimpleNamespace

import numpy as np

import checks
from workloads import import_snburst


def main() -> int:
    snburst = import_snburst()
    g = snburst.gen_heawood()
    snb = snburst.run_one(g, "snb", 0, graph_id="heawood")
    fr = snburst.run_one(g, "fr", 0, graph_id="heawood")
    sync_end = math.ceil(snburst.compute_sync_param(g) * g.n)
    nan_layout = SimpleNamespace(
        coords=np.full((g.n, 2), np.nan), iteration=snb.final_layout.iteration
    )
    moved = snburst.Layout(
        snb.final_layout.coords + np.float64(2.0**-40), snb.final_layout.iteration
    )

    cases = [
        ("record: good SnB run", lambda: checks.check_record(snb, sync_end), False),
        ("record: good FR run", lambda: checks.check_record(fr, sync_end), False),
        ("record: wrong sync-end iteration",
         lambda: checks.check_record(snb, sync_end + 1), True),
        ("record: iteration count not 20n",
         lambda: checks.check_record(dataclasses.replace(fr, iterations=fr.iterations - 1),
                                     sync_end), True),
        ("record: non-finite final layout",
         lambda: checks.check_record(dataclasses.replace(fr, final_layout=nan_layout),
                                     sync_end), True),
        ("record: metrics missing",
         lambda: checks.check_record(dataclasses.replace(fr, metrics=None), sync_end), True),
    ]
    repeat = checks.RepeatCheck()
    snb_moved = dataclasses.replace(snb, final_layout=moved)
    cases += [
        ("repeat: first run", lambda: repeat(*checks.job_digest(snb)), False),
        ("repeat: identical rerun", lambda: repeat(*checks.job_digest(snb)), False),
        ("repeat: layout off by 2^-40", lambda: repeat(*checks.job_digest(snb_moved)), True),
    ]
    for case in checks.load_cases("step.json"):
        wrong_coords = copy.deepcopy(case)
        wrong_coords["expected"][0][0] += 1e-9
        wrong_magnitude = dict(case, magnitude_prev=2.0 * case["magnitude_prev"])
        cases += [
            (f"step {case['name']}: stored reference",
             lambda c=case: checks.check_step(c, snburst), False),
            (f"step {case['name']}: reference off by 1e-9",
             lambda c=wrong_coords: checks.check_step(c, snburst), True),
            (f"step {case['name']}: reference made with half the magnitude",
             lambda c=wrong_magnitude: checks.check_step(c, snburst), True),
        ]
    for case in checks.load_cases("metrics.json"):
        wrong_count = copy.deepcopy(case)
        wrong_count["expected"]["crossings"] += 1
        wrong_float = copy.deepcopy(case)
        wrong_float["expected"]["vertex_distribution"] *= 1 + 1e-6
        cases += [
            (f"metrics {case['name']}: stored reference",
             lambda c=case: checks.check_metrics(c, snburst), False),
            (f"metrics {case['name']}: crossings off by one",
             lambda c=wrong_count: checks.check_metrics(c, snburst), True),
            (f"metrics {case['name']}: vertex_distribution off by 1e-6",
             lambda c=wrong_float: checks.check_metrics(c, snburst), True),
        ]

    bad = 0
    for label, run, should_fire in cases:
        problems = run()
        ok = bool(problems) == should_fire
        bad += not ok
        outcome = "fired" if problems else "passed"
        print(f"{'PASS' if ok else 'FAIL'} {label}: check {outcome}"
              + (f" ({problems[0]})" if problems else ""))
    print(f"{len(cases) - bad}/{len(cases)} cases behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
