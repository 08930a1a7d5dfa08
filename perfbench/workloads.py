"""Workload corpora for the snburst benchmark, and the set-up entry point.

Each workload is a small corpus of graph files made from the workload seed.
The seed drives the scale-free generator and a relabelling of every graph's
vertex ids, so each seed gives isomorphic but differently numbered inputs and
therefore different starting layouts.  The program under test only ever sees
the written files.

Run as a script, this module is the timed set-up step of a benchmark run:

    python3 perfbench/workloads.py --workload paper-corpus --seed 1 --out DIR

It starts a fresh interpreter, imports snburst from the checkout's `src/`,
generates the workload's graphs and writes them to DIR.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Workloads are single-threaded by definition; keep native libraries that
# way too, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class MissingProgramError(RuntimeError):
    """The checkout does not hold the snburst sources next to the benchmark."""


def import_snburst():
    """Import snburst from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "snburst" / "__init__.py").is_file():
        raise MissingProgramError(f"no snburst package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import snburst

    if Path(snburst.__file__).resolve().parent != (SRC / "snburst").resolve():
        raise MissingProgramError(f"snburst imported from {snburst.__file__}, not {SRC}")
    return snburst


# Layout seeds per graph file in one pass; `run_corpus` runs seeds 0..k-1.
# Why each workload exists is written down in perfbench/README.md.
SEEDS_PER_GRAPH = {"paper-corpus": 3, "dense-metrics": 1, "sparse-layout": 1}


def workload_graphs(name: str, seed: int, snburst) -> list:
    """(file name, Graph) pairs of a workload before relabelling.

    The mix of `.txt` edge lists and `.graphml` files exercises both parsers.
    """
    if name == "paper-corpus":
        return [
            ("queen_8_8.txt", snburst.gen_queen(8, 8)),
            ("queen_15_5.graphml", snburst.gen_queen(15, 5)),
            ("wagner.txt", snburst.gen_wagner()),
            ("heawood.graphml", snburst.gen_heawood()),
            # Two edges per new vertex: m = 1 + 2 * 98 = 197.
            ("scale_free_100.txt", snburst.gen_scale_free(100, 2, seed=seed)),
        ]
    if name == "dense-metrics":
        return [("queen_12_12.graphml", snburst.gen_queen(12, 12))]
    if name == "sparse-layout":
        return [("scale_free_200.txt", snburst.gen_scale_free(200, 2, seed=seed))]
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(SEEDS_PER_GRAPH)}")


def relabel(g, rng: random.Random, snburst):
    """The same graph with its vertex ids shuffled by `rng`."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return snburst.Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def write_corpus(name: str, seed: int, out: Path, snburst) -> None:
    """Generate the workload's graphs from `seed` and write them into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    for file_name, g in workload_graphs(name, seed, snburst):
        g = relabel(g, random.Random(f"{seed}/{file_name}"), snburst)
        text = (
            snburst.write_graphml(g)
            if file_name.endswith(".graphml")
            else snburst.write_edge_list(g)
        )
        (out / file_name).write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS_PER_GRAPH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        snburst = import_snburst()
    except MissingProgramError as exc:
        print(f"workloads: {exc}", file=sys.stderr)
        return 2
    write_corpus(args.workload, args.seed, args.out, snburst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
