"""Write the stored cases in perfbench/reference/ from the current code.

    python3 perfbench/make_reference.py

Run it only to record a deliberate change of results; the benchmark's
reference checks compare every later run against these files.  Graphs are
stored as edge lists so the cases do not depend on the generators.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from checks import REFERENCE_DIR
from workloads import import_snburst


def _graph_fields(g):
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def step_case(snburst, name, g, layout, sync_param, seed):
    params = snburst.SnbParams(sync_param=sync_param, seed=seed)
    if layout.iteration == 0:
        mag = 1.0 / g.m
    else:
        mag = snburst.magnitude(layout.iteration, g, params)
    out = snburst.snb_step(g, layout, mag, params)
    return {
        "name": name,
        **_graph_fields(g),
        "layout": layout.coords.tolist(),
        "iteration": layout.iteration,
        "magnitude_prev": mag,
        "sync_param": sync_param,
        "seed": seed,
        "expected": out.coords.tolist(),
    }


def metrics_case(snburst, name, g, layout):
    report = snburst.compute_metrics(g, layout)
    return {
        "name": name,
        **_graph_fields(g),
        "layout": layout.coords.tolist(),
        "expected": report.scalar_row(),
    }


def main() -> int:
    snburst = import_snburst()
    queen = snburst.gen_queen(8, 8)
    s_queen = snburst.compute_sync_param(queen)
    queen_run = snburst.snb_run(queen, snburst.SnbParams(sync_param=s_queen, seed=0))
    sf = snburst.gen_scale_free(100, 2, seed=0)
    s_sf = snburst.compute_sync_param(sf)
    heawood = snburst.gen_heawood()
    # Two pairs of coincident vertices exercise the hashed-direction fallback.
    coords = np.array(snburst.initial_layout(heawood, 3).coords)
    coords[5] = coords[0]
    coords[9] = coords[2]
    coincident = snburst.Layout(coords, 40)
    wagner = snburst.gen_wagner()

    steps = [
        step_case(snburst, "queen_8_8_sync_end", queen, queen_run.sync_end_layout, s_queen, 0),
        step_case(snburst, "scale_free_100_start", sf, snburst.initial_layout(sf, 7), s_sf, 7),
        step_case(snburst, "heawood_coincident", heawood, coincident, 4.0, 3),
    ]
    metrics = [
        metrics_case(snburst, "queen_8_8_snb", queen, queen_run.final_layout),
        metrics_case(
            snburst,
            "scale_free_100_fr",
            sf,
            snburst.fr_run(sf, snburst.FrParams(seed=1)).final_layout,
        ),
        metrics_case(snburst, "wagner_snb", wagner, snburst.snb_run(wagner).final_layout),
        metrics_case(
            snburst, "heawood_random", heawood, snburst.initial_layout(heawood, 5)
        ),
    ]
    REFERENCE_DIR.mkdir(exist_ok=True)
    for file_name, cases in (("step.json", steps), ("metrics.json", metrics)):
        (REFERENCE_DIR / file_name).write_text(json.dumps(cases) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
