"""The in-place pairwise kernel and the runs built on it: every frame of
`fr_run` and `snb_run`, alone or in a batch of seeds, is bitwise equal to
the frozen dense iterations in `oracles`, a reused workspace gives what a
fresh one gives, `iterate` makes each batch's workspace before its clock
starts and after the previous batch's is freed, and names the seeds whose
rows go non-finite, and a run allocates no n x n array beyond one batch's
workspace."""

import math
import random
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from conftest import lattice_coords, random_graph
from snburst import (
    FrParams,
    Graph,
    Layout,
    NumericError,
    SnbParams,
    fr_run,
    gen_queen,
    gen_scale_free,
    snb_run,
)
from snburst import layout as layout_mod
from snburst.layout import PairWorkspace, initial_layout, pair_directions
from snburst.snb import ATTRACTION_EXPONENT, log_magnitude


def frames(record, start):
    """The run's (2, n) positions from the start through every iteration."""
    coords = [start.coords] + [lay.coords for _, lay in record.trajectory]
    return [np.ascontiguousarray(c.T) for c in coords]


def captured_records(run, g, params, seeds):
    """`run`'s records with every frame captured: params.seed's alone when
    `seeds` is None, else one per seed from one batch."""
    if seeds is None:
        return [run(g, params, capture_every=1)]
    return run(g, params, seeds=seeds, capture_every=1)


def check_fr_frames(g, params, start, seeds=None):
    """`start(seed)` is the Layout the seed's run starts from."""
    adj = oracles.dense_adjacency(g)
    for r in captured_records(fr_run, g, params, seeds):
        pos = frames(r, start(r.seed))
        assert len(pos) == r.iterations + 1
        for t in range(1, len(pos)):
            want = oracles.dense_fr_iteration(adj, pos[t - 1], t, r.iterations, r.seed)
            assert np.array_equal(pos[t], want), f"FR seed {r.seed} frame {t}"


def check_snb_frames(g, params, start, seeds=None):
    adj = oracles.dense_adjacency(g)
    log_m = math.log(g.m)
    for r in captured_records(snb_run, g, params, seeds):
        pos = frames(r, start(r.seed))
        assert len(pos) == r.iterations + 1
        for t in range(1, len(pos)):
            log_mag_prev = -log_m if t == 1 else log_magnitude(t - 1, g, params)
            ratio = math.exp(log_m + (ATTRACTION_EXPONENT - 1.0) * log_mag_prev)
            want = oracles.dense_snb_step(adj, pos[t - 1], t - 1, r.seed, ratio)
            assert np.array_equal(pos[t], want), f"SnB seed {r.seed} frame {t}"


def seeded_start(g):
    return lambda seed: initial_layout(g, seed)


class TestFramesMatchDenseOracle:
    def test_fr_random_graphs(self):
        rng = random.Random(31)
        for seed in range(12):
            n = rng.randint(2, 16)
            m = 0 if seed < 3 else rng.randint(1, n * (n - 1) // 2)
            g = random_graph(n, m, rng)
            params = FrParams(seed=seed, total_multiplier=3)
            check_fr_frames(g, params, seeded_start(g))

    def test_snb_random_graphs(self):
        rng = random.Random(32)
        for seed in range(12):
            n = rng.randint(2, 16)
            g = random_graph(n, rng.randint(1, n * (n - 1) // 2), rng)
            params = SnbParams(sync_param=rng.uniform(0.5, 2.0), seed=seed, total_multiplier=5)
            check_snb_frames(g, params, seeded_start(g))

    def test_fr_dense_edges_bytes(self):
        # Queen 12 x 12 (m = 2596): the edge scatter writes 5192 of the
        # 20736 coefficients.  First and last frames, byte for byte.
        g = gen_queen(12, 12)
        r = fr_run(g, FrParams(seed=3, total_multiplier=1), capture_every=1)
        pos = frames(r, initial_layout(g, 3))
        adj = oracles.dense_adjacency(g)
        for t in (1, r.iterations):
            want = oracles.dense_fr_iteration(adj, pos[t - 1], t, r.iterations, 3)
            assert pos[t].tobytes() == want.tobytes(), f"FR frame {t}"

    @pytest.mark.parametrize("n", [10, 14, 20])
    def test_coincident_lattice_starts(self, monkeypatch, n):
        start = Layout(lattice_coords(n))
        monkeypatch.setattr(layout_mod, "initial_layout", lambda g, seed: start)
        rng = random.Random(n)
        for seed in range(3):
            g = random_graph(n, rng.randint(1, 2 * n), rng)
            check_fr_frames(g, FrParams(seed=seed, total_multiplier=2), lambda seed: start)
            check_snb_frames(
                g, SnbParams(sync_param=1.0, seed=seed, total_multiplier=3), lambda seed: start
            )

    @pytest.mark.parametrize("n", [9, 14])
    def test_batches_of_three(self, monkeypatch, n):
        # Each batch mixes a lattice start (even seeds: coincident pairs
        # from the first iteration at n = 14) with random ones, so the
        # batch takes the coincident path while some of its rows have none.
        lattice = Layout(lattice_coords(n))

        def start(seed):
            # `initial_layout` is this module's name for the unpatched start.
            return lattice if seed % 2 == 0 else initial_layout(Graph(n, ()), seed)

        monkeypatch.setattr(layout_mod, "initial_layout", lambda g, seed: start(seed))
        rng = random.Random(n)
        for first in (0, 3):
            seeds = (first, first + 1, first + 2)
            g = random_graph(n, rng.randint(1, 2 * n), rng)
            check_fr_frames(g, FrParams(total_multiplier=2), start, seeds)
            check_snb_frames(g, SnbParams(sync_param=1.0, total_multiplier=3), start, seeds)


class TestWorkspaceReuse:
    def test_reuse_matches_fresh_calls(self):
        n = 12
        coincident = np.ascontiguousarray(lattice_coords(n).T)[None]
        distinct = np.random.default_rng(0).random((1, 2, n))
        ws = PairWorkspace(n, (5,))

        def check(pos, iteration, want_coincident):
            u, d = pair_directions(pos, iteration, ws)
            assert np.shares_memory(u, ws.u) and np.shares_memory(d, ws.d)
            assert ws.coincident is want_coincident
            fresh_u, fresh_d = pair_directions(pos, iteration, PairWorkspace(n, (5,)))
            assert np.array_equal(u, fresh_u)
            assert np.array_equal(d, fresh_d)
            return d

        check(coincident, 3, True)
        check(distinct, 4, False)
        d = check(coincident, 5, True)
        # What FR does between calls: clamp d in place, fill the scratch.
        d[d == 0.0] = 1e-9
        ws.scratch.fill(np.nan)
        check(distinct, 6, False)
        check(coincident, 7, True)


def test_iterate_makes_workspace_before_clock_and_passes_it_on(monkeypatch):
    # In order: each workspace `iterate` makes and each clock read.
    events = []
    made = []  # weak references to the workspaces, in the order made

    class RecordingWorkspace(PairWorkspace):
        def __init__(self, n, seeds):
            # The previous batch's workspace is freed before the next is made.
            assert all(ref() is None for ref in made)
            super().__init__(n, seeds)
            made.append(weakref.ref(self))
            events.append("workspace")

    class RecordingClock:
        @staticmethod
        def perf_counter():
            events.append("clock")
            return time.perf_counter()

    monkeypatch.setattr(layout_mod, "PairWorkspace", RecordingWorkspace)
    monkeypatch.setattr(layout_mod, "time", RecordingClock)
    given = []

    def positions(pos, ws):
        assert ws is made[-1]()
        given.append(ws.seeds)
        yield pos

    # Queen 3 x 3 has n^2 = 81, so a budget of 162 gives batches of 2.
    for budget, seeds, batches in (
        (1 << 15, (0,), [(0,)]),
        (162, (0, 1, 2, 3), [(0, 1), (2, 3)]),
    ):
        monkeypatch.setattr(layout_mod, "PAIR_BLOCK", budget)
        for log in (events, made, given):
            log.clear()
        records = layout_mod.iterate(gen_queen(3, 3), "probe", seeds, positions)
        assert events == ["workspace", "clock", "clock"] * len(batches)
        assert given == batches
        assert [r.seed for r in records] == list(seeds)


@pytest.mark.parametrize("algorithm, ceiling", [
    # The workspace holds 4 n^2 doubles and SnB keeps a dense adjacency
    # matrix; everything else a run allocates must stay under one more n x n
    # array.  With an n x n temporary per iteration FR peaked at 10.1 and SnB
    # at 9.1.
    ("fr", 5.0),
    ("snb", 6.0),
])
def test_allocation_ceiling(algorithm, ceiling):
    g = gen_scale_free(200, 2, seed=0)
    if algorithm == "fr":
        def run():
            fr_run(g, FrParams(total_multiplier=1))
    else:
        def run():
            snb_run(g, SnbParams(sync_param=0.25, total_multiplier=1))
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * g.n * g.n) < ceiling


@pytest.mark.parametrize("algorithm, seeds", [
    pytest.param("fr", range(3), id="fr"),
    pytest.param("snb", range(3), id="snb"),
    # Past the cap: 12 seeds run as batches of PAIR_BLOCK // n^2 = 4.
    pytest.param("fr", range(12), id="fr-12-seeds"),
    pytest.param("snb", range(12), id="snb-12-seeds"),
])
def test_batched_allocation_ceiling(algorithm, seeds):
    # A paper-size batch (n = 100) holds its (B, ...) workspace of 4 B n^2
    # doubles, with B = min(seeds, PAIR_BLOCK // n^2), and SnB its n x n
    # adjacency.  All else must fit in one more n x n array plus the
    # fixed-size buffer numpy's ufunc iterator takes for a broadcast operand
    # (`np.getbufsize()` elements, 64 KiB by default: 0.82 n^2 doubles at
    # this n, whatever B is).  One more n x n temporary per iteration, any
    # (B, n, n) one, or two batches' workspaces at once goes over.
    g = gen_scale_free(100, 2, seed=0)
    tracemalloc.start()
    try:
        if algorithm == "fr":
            fr_run(g, FrParams(total_multiplier=1), seeds=seeds)
        else:
            snb_run(g, SnbParams(sync_param=0.25, total_multiplier=1), seeds=seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    square = 8 * g.n * g.n
    rows = min(len(seeds), layout_mod.PAIR_BLOCK // (g.n * g.n))
    arrays = 4 * rows + (2 if algorithm == "snb" else 1)
    assert peak < arrays * square + 8 * np.getbufsize()


def test_non_finite_row_names_algorithm_iteration_and_seed():
    # Seed 7's row goes non-finite at iteration 2; the other rows stay finite.
    def positions(pos, ws):
        yield pos
        pos = pos.copy()
        pos[1, 0, 2] = np.nan
        yield pos

    with pytest.raises(NumericError, match=r"probe iteration 2 for seed\(s\) \[7\]$"):
        layout_mod.iterate(gen_queen(3, 3), "probe", (6, 7, 8), positions)


@pytest.mark.parametrize("algorithm", ["fr", "snb"])
def test_seed_given_twice_is_rejected(algorithm):
    # A run's seeds come from params.seed or from seeds=, not from both.
    g = gen_queen(3, 3)
    with pytest.raises(ValueError, match="not both"):
        if algorithm == "fr":
            fr_run(g, FrParams(seed=3, total_multiplier=1), seeds=(0, 1))
        else:
            snb_run(g, SnbParams(sync_param=0.25, seed=3, total_multiplier=1), seeds=(0, 1))
