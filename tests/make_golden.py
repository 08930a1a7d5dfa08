"""Identity digests of a fixed set of runs, and the script that stores them.

Run only on purpose, from the root of the repository:

    PYTHONPATH=src python tests/make_golden.py

It runs every job of `JOBS` through `bench.run_one` (the layout and the
metric scorecard) and writes one SHA-256 per job to `golden/identity.json`,
with the numpy version and the CPU's SIMD features it ran on.
`test_golden.py` recomputes the digests and asserts them, so a change that
moves one bit of a layout or a metric fails there.  Regenerate the file
only for a change meant to alter results, and say why where the change is
recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from conftest import lattice_coords
from snburst import Layout, gen_heawood, gen_queen, gen_scale_free, gen_wagner
from snburst import layout as layout_mod
from snburst.bench import run_one

GOLDEN = Path(__file__).resolve().parent / "golden" / "identity.json"

GRAPHS = {
    "wagner": gen_wagner,
    "heawood": gen_heawood,
    "queen_8_8": lambda: gen_queen(8, 8),
    "queen_15_5": lambda: gen_queen(15, 5),
    "scale_free_100": lambda: gen_scale_free(100, 2, seed=0),
}
# Heawood (n = 14) started from the 3 x 3 lattice: five points hold two
# vertices each, so the coincident-pair path runs from the first iteration.
LATTICE_GRAPH = "heawood"

# Job key -> (graph name, algorithm, seed, lattice start?).
JOBS = {
    f"{alg}-{name}-{seed}": (name, alg, seed, False)
    for name in GRAPHS
    for alg in ("snb", "fr")
    for seed in (0, 1)
}
JOBS.update(
    {f"{alg}-{LATTICE_GRAPH}-lattice-0": (LATTICE_GRAPH, alg, 0, True) for alg in ("snb", "fr")}
)


try:
    from numpy._core import _multiarray_umath as npsimd
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as npsimd


def cpu_features() -> list[str]:
    """The SIMD features numpy detected on this CPU (less any turned off
    through NPY_DISABLE_CPU_FEATURES)."""
    return sorted(name for name, present in npsimd.__cpu_features__.items() if present)


def blas() -> str:
    """The BLAS numpy was built with: its name and version, or on numpy
    < 1.26, which records no version, its library names."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26: show_config takes no mode
        get = np.__config__.get_info
        libs = get("blas_ilp64_opt").get("libraries") or get("blas_opt").get("libraries", [])
        return f"{' '.join(dict.fromkeys(libs)) or 'unknown'} (version not recorded)"
    return f"{info['name']} {info.get('version', '')}".rstrip()


def environment() -> dict:
    return {"numpy": np.__version__, "simd": cpu_features()}


def _cell(value) -> str:
    """A scalar metric as text: floats in hex, so every bit counts."""
    if value is None or isinstance(value, (int, np.integer)):
        return str(value)
    return float(value).hex()


def layout_bytes(record) -> bytes:
    """The final and sync-end layout bytes of a record."""
    sync_end = record.sync_end_layout
    end = b"no sync end" if sync_end is None else sync_end.coords.tobytes()
    return record.final_layout.coords.tobytes() + end


def record_digest(record) -> str:
    """SHA-256 over the iteration count, the final and sync-end layout
    bytes and the metric scalars."""
    h = hashlib.sha256()
    h.update(f"{record.iterations};".encode())
    h.update(layout_bytes(record))
    for name, value in record.metrics.scalar_row().items():
        h.update(f"{name}={_cell(value)};".encode())
    return h.hexdigest()


def job_record(key: str):
    """The scored record of job `key`."""
    name, algorithm, seed, lattice = JOBS[key]
    g = GRAPHS[name]()
    seeded = layout_mod.initial_layout
    if lattice:
        start = Layout(lattice_coords(g.n))
        layout_mod.initial_layout = lambda g, seed: start
    try:
        return run_one(g, algorithm, seed)
    finally:
        layout_mod.initial_layout = seeded


def job_digest(key: str) -> str:
    return record_digest(job_record(key))


def main():
    golden = {**environment(), "jobs": {key: job_digest(key) for key in JOBS}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(JOBS)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
