"""Every job of `make_golden.JOBS` still gives the digest stored in
`golden/identity.json`: layouts and metrics are bitwise what they were when
the file was written.  Run in a batch with another seed, or in a later
batch of the same run, a job still gives its digest.  The layouts are also
bitwise the same with numpy's AVX-512 kernels turned off, and with
OpenBLAS's oldest x86-64 dgemm kernel."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import make_golden
import snburst
from conftest import lattice_coords
from snburst import Layout
from snburst import layout as layout_mod
from snburst.bench import run_batch

GOLDEN = json.loads(make_golden.GOLDEN.read_text())

# Run in a child process: its SIMD features and both digests, as JSON.
SIMD_CHILD = (
    "import json, make_golden, test_golden; print(json.dumps({"
    "'simd': make_golden.cpu_features(), "
    "'layouts': test_golden.layouts_digest(), "
    "'arccos': test_golden.arccos_digest()}))"
)


def layouts_digest() -> str:
    """SHA-256 over the final and sync-end layout bytes of every job."""
    h = hashlib.sha256()
    for key in make_golden.JOBS:
        h.update(make_golden.layout_bytes(make_golden.job_record(key)))
    return h.hexdigest()


def arccos_digest() -> str:
    """SHA-256 of numpy's arccos on a fixed grid of [-1, 1]."""
    return hashlib.sha256(np.arccos(np.linspace(-1.0, 1.0, 200_001)).tobytes()).hexdigest()


def test_job_set_matches_file():
    assert sorted(GOLDEN["jobs"]) == sorted(make_golden.JOBS)


@pytest.mark.parametrize("key", list(make_golden.JOBS))
def test_identity_digest(key):
    running = make_golden.environment()
    assert make_golden.job_digest(key) == GOLDEN["jobs"][key], (
        f"{key} is not bitwise what it was. Stored with numpy {GOLDEN['numpy']} "
        f"and SIMD {' '.join(GOLDEN['simd'])}; running numpy {running['numpy']} "
        f"and SIMD {' '.join(running['simd'])}"
    )


@pytest.mark.parametrize("name", list(make_golden.GRAPHS))
@pytest.mark.parametrize("algorithm", ["snb", "fr"])
def test_batch_of_two_seeds_keeps_each_digest(name, algorithm):
    records = run_batch(make_golden.GRAPHS[name](), algorithm, (0, 1))
    assert [r.seed for r in records] == [0, 1]
    for r in records:
        assert make_golden.record_digest(r) == GOLDEN["jobs"][f"{algorithm}-{name}-{r.seed}"]


@pytest.mark.parametrize("algorithm", ["snb", "fr"])
def test_mixed_lattice_and_seeded_batch(monkeypatch, algorithm):
    # Seed 0 starts on the 3 x 3 lattice (coincident pairs), seed 1 from
    # its seeded random start: first both in one batch, then with a budget
    # of one seed per batch and seed 1 first, so the lattice seed runs in a
    # later batch and must still hash its coincident pairs with seed 0.
    name = make_golden.LATTICE_GRAPH
    g = make_golden.GRAPHS[name]()
    lattice = Layout(lattice_coords(g.n))
    seeded = layout_mod.initial_layout
    monkeypatch.setattr(
        layout_mod, "initial_layout", lambda g, seed: lattice if seed == 0 else seeded(g, seed)
    )
    jobs = GOLDEN["jobs"]
    want = {0: jobs[f"{algorithm}-{name}-lattice-0"], 1: jobs[f"{algorithm}-{name}-1"]}
    for budget, seeds in ((layout_mod.PAIR_BLOCK, (0, 1)), (1, (1, 0))):
        monkeypatch.setattr(layout_mod, "PAIR_BLOCK", budget)
        records = run_batch(g, algorithm, seeds)
        assert [r.seed for r in records] == list(seeds)
        for r in records:
            assert make_golden.record_digest(r) == want[r.seed], (budget, seeds, r.seed)


def test_layouts_bitwise_across_simd_paths():
    # numpy sends float64 arccos, exp and log to other kernels with and
    # without AVX-512.  A child process runs every job with numpy's AVX-512
    # dispatch turned off; its layouts must match this process's bit for
    # bit.  The metric digests are left out: the angle metrics' arccos is
    # not bitwise across these paths.
    off = [
        f for f in make_golden.cpu_features()
        if (f.startswith("AVX512") or f == "X86_V4") and f in make_golden.npsimd.__cpu_dispatch__
    ]
    paths = [str(Path(__file__).resolve().parent), str(Path(snburst.__file__).resolve().parents[1])]
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(off),
        "PYTHONPATH": os.pathsep.join(paths),
    }
    child = subprocess.run(
        [sys.executable, "-c", SIMD_CHILD], env=env, capture_output=True, text=True, timeout=600
    )
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    # numpy warns and goes on when it cannot turn a feature off: fail then.
    assert not set(off) & set(got["simd"]), f"numpy kept {set(off) & set(got['simd'])}"
    if off:
        print(f"compared with {' '.join(off)} turned off; child SIMD: {' '.join(got['simd'])}")
    else:
        print(f"no AVX-512 dispatch to turn off: both runs take one path ({' '.join(got['simd'])})")
    differs = "differs" if got["arccos"] != arccos_digest() else "does not differ"
    print(f"numpy arccos on the grid {differs} between the two processes")
    assert got["layouts"] == layouts_digest()


def test_layouts_bitwise_across_blas_kernels():
    # The pairwise kernel takes its coordinate differences from a dgemm.  A
    # child process runs every job with OpenBLAS's Prescott kernel (SSE3: no
    # AVX, no FMA), two BLAS threads allowed; its layouts must match this
    # process's bit for bit.  A BLAS other than OpenBLAS ignores both
    # variables, and the two processes then take one kernel.
    paths = [str(Path(__file__).resolve().parent), str(Path(snburst.__file__).resolve().parents[1])]
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Prescott",
        "OPENBLAS_NUM_THREADS": "2",
        "PYTHONPATH": os.pathsep.join(paths),
    }
    child = subprocess.run(
        [sys.executable, "-c", "import test_golden; print(test_golden.layouts_digest())"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    print(f"numpy's BLAS: {make_golden.blas()}; child ran with OPENBLAS_CORETYPE=Prescott")
    assert child.stdout.strip() == layouts_digest()
