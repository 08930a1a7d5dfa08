"""Every job of `make_golden.JOBS` still gives the digest stored in
`golden/identity.json`: layouts and metrics are bitwise what they were when
the file was written.  Run in a batch with another seed, or in a later
batch of the same run, a job still gives its digest."""

import json

import pytest

import make_golden
from conftest import lattice_coords
from snburst import Layout
from snburst import layout as layout_mod
from snburst.bench import run_batch

GOLDEN = json.loads(make_golden.GOLDEN.read_text())


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
