import math
import random
import tracemalloc

import numpy as np
import pytest

import make_golden
import oracles
from conftest import (
    clustered_connected_graph,
    cycle,
    lattice_coords,
    random_connected_graph,
    random_graph,
    random_layout_coords,
)
from snburst import (
    DegenerateGraphError,
    DegenerateLayoutError,
    Graph,
    Layout,
    SnbParams,
    compute_sync_param,
    gen_queen,
    gen_scale_free,
    gen_wagner,
    initial_layout,
    magnitude,
    normalize_layout,
    snb_run,
    snb_step,
    sync_phase_iterations,
)
from snburst.layout import PairWorkspace, pair_directions
from snburst.rng import hash_angle


def hard_rows(kind, n, rng):
    """(2, n) positions: "random", "lattice" (coincident pairs) or one of
    the hard inputs of the difference build, which have no coincident pair:
    "shared" (dx or dy is +0.0 off the diagonal), "zeros" (coordinates
    exactly 0.0), "subnormal" (x of 1e-310 or less on every other vertex)
    and "magnitudes" (both signs, from 1e-150 to 1e150)."""
    if kind == "lattice":
        return lattice_coords(n).T
    xy = rng.random((2, n))
    half = n // 2
    if kind == "shared":
        xy[0, :half] = rng.integers(0, 4, half) / 4
        xy[1, half:] = rng.integers(0, 4, n - half) / 4
    elif kind == "zeros":
        xy[0, ::2] = 0.0
        xy[1, 1::2] = 0.0
    elif kind == "subnormal":
        xy[0, ::2] *= 1e-310
    elif kind == "magnitudes":
        xy *= rng.choice((-1.0, 1.0), (2, n)) * 10.0 ** rng.uniform(-150.0, 150.0, (2, n))
    return xy


def grid_coords(rng, n):
    """Dyadic-rational coordinates, exact under power-of-two scaling and
    integer translation (see the similarity-invariance tests)."""
    return np.array(
        [[rng.randrange(1 << 20) * 2.0**-20, rng.randrange(1 << 20) * 2.0**-20]
         for _ in range(n)]
    )


class TestLayout:
    def test_rejects_nan(self):
        from snburst import NumericError

        with pytest.raises(NumericError):
            Layout(np.array([[0.0, float("nan")]]))

    def test_normalize_scale(self):
        l = normalize_layout(Layout(np.array([[0.0, 0.0], [2.0, 1.0]])))
        assert np.allclose(l.coords, [[0.0, 0.0], [1.0, 0.5]])

    def test_normalize_idempotent(self):
        rng = random.Random(3)
        coords = np.array([[rng.random() * 7 - 3, rng.random() * 2] for _ in range(10)])
        once = normalize_layout(Layout(coords))
        twice = normalize_layout(once)
        assert np.array_equal(once.coords, twice.coords)

    def test_normalize_unit_side(self):
        rng = random.Random(4)
        for _ in range(20):
            coords = np.array([[rng.gauss(0, 5), rng.gauss(0, 5)] for _ in range(8)])
            l = normalize_layout(Layout(coords))
            lo, hi = l.coords.min(axis=0), l.coords.max(axis=0)
            assert max(hi - lo) == pytest.approx(1.0, abs=1e-12)

    def test_normalize_degenerate(self):
        with pytest.raises(DegenerateLayoutError):
            normalize_layout(Layout(np.array([[1.0, 1.0], [1.0, 1.0]])))


class TestPairDirections:
    def test_unit_antisymmetric_zero_diagonal(self):
        rng = random.Random(6)
        coords = random_layout_coords(12, rng)
        pos = np.ascontiguousarray(coords.T)[None]
        u, d = pair_directions(pos, 3, PairWorkspace(12, (1,)))
        assert u.shape == (1, 2, 12, 12) and d.shape == (1, 12, 12)
        u, d = u[0], d[0]
        assert np.all(np.diagonal(u, axis1=1, axis2=2) == 0.0)
        assert np.all(np.diag(d) == 1.0)
        assert np.array_equal(u, -u.transpose(0, 2, 1))
        off = ~np.eye(12, dtype=bool)
        assert np.allclose(np.hypot(u[0], u[1])[off], 1.0, rtol=0, atol=1e-15)
        for i in range(12):
            for j in range(12):
                if i != j:
                    assert d[i, j] == pytest.approx(math.dist(coords[i], coords[j]), rel=1e-15)
                    want = (coords[j] - coords[i]) / math.dist(coords[i], coords[j])
                    assert np.allclose(u[:, i, j], want, rtol=0, atol=1e-15)

    def test_coincident_pairs_get_hashed_direction(self):
        # Vertices 0, 1 and 3 share one point; vertex 2 is elsewhere.
        pos = np.array([[[0.25, 0.25, 0.75, 0.25], [0.5, 0.5, 0.0, 0.5]]])
        u, d = pair_directions(pos, 7, PairWorkspace(4, (11,)))
        u, d = u[0], d[0]
        for i, j in ((0, 1), (0, 3), (1, 3)):
            assert d[i, j] == d[j, i] == 0.0
            theta = hash_angle(11, 7, i, j)
            assert (u[0, i, j], u[1, i, j]) == (math.cos(theta), math.sin(theta))
            assert np.array_equal(u[:, j, i], -u[:, i, j])
        assert d[0, 2] > 0.0 and np.allclose(np.hypot(u[0, 0, 2], u[1, 0, 2]), 1.0)
        # Own workspaces: one shared with `u` would make `again` alias it.
        again, _ = pair_directions(pos, 7, PairWorkspace(4, (11,)))
        assert np.array_equal(u, again[0])
        later, _ = pair_directions(pos, 8, PairWorkspace(4, (11,)))
        assert not np.array_equal(u[:, 0, 1], later[0, :, 0, 1])

    def test_coincident_pair_hashes_its_rows_seed(self):
        # Rows 0 and 2 hold vertices 0 and 1 on one point, row 1 none.
        pos = np.array([
            [[0.25, 0.25, 0.75], [0.5, 0.5, 0.0]],
            [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]],
            [[0.25, 0.25, 0.75], [0.5, 0.5, 0.0]],
        ])
        seeds = (4, 5, 6)
        u, d = pair_directions(pos, 2, PairWorkspace(3, seeds))
        for k in (0, 2):
            assert d[k, 0, 1] == 0.0
            theta = hash_angle(seeds[k], 2, 0, 1)
            assert (u[k, 0, 0, 1], u[k, 1, 0, 1]) == (math.cos(theta), math.sin(theta))
            alone, _ = pair_directions(pos[k:k + 1], 2, PairWorkspace(3, seeds[k:k + 1]))
            assert u[k].tobytes() == alone[0].tobytes()
        assert not np.array_equal(u[0], u[2])
        assert np.all(d[1] > 0.0)

    @pytest.mark.parametrize(
        "n, kind",
        [
            pytest.param(200, "random", id="200-False"),
            pytest.param(40, "lattice", id="40-True"),
            (300, "random"),
            (64, "shared"),
            (64, "zeros"),
            (64, "subnormal"),
            (64, "magnitudes"),
        ],
    )
    def test_bytes_match_dense_oracle_on_reused_workspace(self, n, kind):
        # Benchmark-sized and hard inputs, compared byte for byte so a -0.0
        # where the oracle has +0.0 fails too; at n = 300 the difference
        # product runs in two row blocks.  The workspace is reused, with
        # FR's between-call writes (clamped d, filled scratch) left in it.
        # Both the one-seed batch and a two-row one run; row 0 is the case's
        # layout, row 1 a random one.
        rng = np.random.default_rng(n)
        for seeds in ((9,), (9, 10)):
            ws = PairWorkspace(n, seeds)
            for iteration in range(3):
                rows = [hard_rows(kind, n, rng)] + [rng.random((2, n)) for _ in seeds[1:]]
                pos = np.ascontiguousarray(np.stack(rows))
                u, d = pair_directions(pos, iteration, ws)
                assert ws.coincident is (kind == "lattice")
                for k, seed in enumerate(seeds):
                    want_u, want_d = oracles.dense_pair_directions(pos[k], iteration, seed)
                    assert u[k].tobytes() == want_u.tobytes()
                    assert d[k].tobytes() == want_d.tobytes()
                d[d == 0.0] = 1e-9
                ws.scratch.fill(np.nan)

    def test_negative_zero_reads_as_positive_zero(self):
        # x_j = -0.0 and x_i = +0.0 subtract to -0.0; the kernel's product
        # gives +0.0 there, the bits of the same input with its zeros made +0.0.
        rng = np.random.default_rng(5)
        pos = rng.random((2, 2, 24))
        pos[:, 0, ::3] = -0.0
        pos[:, 0, 1::3] = 0.0
        pos[:, 1, 2::4] = -0.0
        assert oracles.dense_pair_directions(pos[0], 0, 9)[0].tobytes() != (
            oracles.dense_pair_directions(pos[0] + 0.0, 0, 9)[0].tobytes()
        )
        u, d = pair_directions(pos, 0, PairWorkspace(24, (9, 10)))
        for k, seed in enumerate((9, 10)):
            want_u, want_d = oracles.dense_pair_directions(pos[k] + 0.0, 0, seed)
            assert u[k].tobytes() == want_u.tobytes()
            assert d[k].tobytes() == want_d.tobytes()

    def test_golden_layouts_hold_no_negative_zero(self):
        # The kernel reads -0.0 as +0.0 (see above); its runs give the
        # subtraction's layouts because their positions never hold -0.0.
        for key in make_golden.JOBS:
            record = make_golden.job_record(key)
            for layout in (record.final_layout, record.sync_end_layout):
                if layout is not None:
                    coords = layout.coords
                    assert not np.any((coords == 0.0) & np.signbit(coords)), key

    def test_reused_workspace_allocates_no_pair_array(self):
        # A matmul that fell back to a (B, 2, n, n) temporary would trace
        # 2.5 MB per call here.
        n = 400
        pos = np.random.default_rng(1).random((1, 2, n))
        ws = PairWorkspace(n, (1,))
        pair_directions(pos, 0, ws)
        tracemalloc.start()
        try:
            for iteration in range(5):
                pair_directions(pos, iteration, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestStep:
    def test_matches_scalar_oracle(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(2, 25)
            g = random_graph(n, rng.randint(1, n * (n - 1) // 2), rng)
            coords = random_layout_coords(n, rng)
            mag = math.exp(rng.uniform(-5.0, 5.0))
            out = snb_step(g, Layout(coords), mag, SnbParams(sync_param=1.0)).coords
            want = oracles.snb_step(g, coords.tolist(), mag)
            assert np.allclose(out, want, rtol=0, atol=1e-12)

    def test_two_vertex_symmetry(self):
        g = Graph(2, ((0, 1),))
        rng = random.Random(5)
        for _ in range(20):
            p0 = (rng.random(), rng.random())
            p1 = (rng.random(), rng.random())
            prev = Layout(np.array([p0, p1]))
            out = snb_step(g, prev, 0.5, SnbParams(sync_param=1.0)).coords
            # Reflections through the (zero) centroid along the original direction.
            assert np.allclose(out[0], -out[1], atol=1e-12)
            d_out = out[1] - out[0]
            d_in = np.array(p1) - np.array(p0)
            cross = d_out[0] * d_in[1] - d_out[1] * d_in[0]
            assert abs(cross) < 1e-12

    def test_golden_three_vertices(self):
        # One edge (0,1), third vertex free; literal force equations computed
        # independently (scalar arithmetic) and frozen here.
        g = Graph(3, ((0, 1),))
        prev = Layout(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]))
        out = snb_step(g, prev, 0.25, SnbParams(sync_param=1.0)).coords
        expected = np.array(
            [
                [-0.11125006168070574, -0.3333333333333333],
                [0.11125006168070574, -0.3333333333333333],
                [0.0, 0.6666666666666666],
            ]
        )
        assert np.allclose(out, expected, atol=1e-14)

    def test_similarity_invariance_bitwise(self):
        rng = random.Random(11)
        g = random_graph(9, 14, rng)
        p = SnbParams(sync_param=2.0, seed=1)
        for _ in range(100):
            coords = grid_coords(rng, g.n)
            scale = 2.0 ** rng.randint(-8, 8)
            shift = np.array([rng.randint(-1000, 1000), rng.randint(-1000, 1000)], dtype=float)
            base = snb_step(g, Layout(coords), 7.5, p)
            moved = snb_step(g, Layout(coords * scale + shift), 7.5, p)
            assert np.array_equal(base.coords, moved.coords)

    def test_coincident_vertices_no_error(self):
        g = Graph(3, ((0, 1), (1, 2)))
        prev = Layout(np.array([[0.2, 0.2], [0.2, 0.2], [0.7, 0.7]]))
        out = snb_step(g, prev, 1.5, SnbParams(sync_param=1.0, seed=9))
        assert np.all(np.isfinite(out.coords))
        # Deterministic: same inputs, same resolution of the coincidence.
        again = snb_step(g, prev, 1.5, SnbParams(sync_param=1.0, seed=9))
        assert np.array_equal(out.coords, again.coords)

    def test_output_centered_unit_extent(self):
        g = cycle(6)
        rng = random.Random(13)
        prev = Layout(np.array([[rng.random(), rng.random()] for _ in range(6)]))
        out = snb_step(g, prev, 2.0, SnbParams(sync_param=1.0)).coords
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert max(np.ptp(out[:, 0]), np.ptp(out[:, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_iteration_advances(self):
        g = cycle(4)
        prev = initial_layout(g, 0)
        out = snb_step(g, prev, 1.0, SnbParams(sync_param=1.0))
        assert out.iteration == 1


class TestRun:
    def test_iteration_budget_queen(self):
        g = gen_queen(8, 8)
        r = snb_run(g, SnbParams(sync_param=4.0, seed=0))
        assert r.iterations == 20 * 64
        assert r.final_layout.iteration == 1280

    def test_deterministic(self):
        g = cycle(12)
        p = SnbParams(sync_param=2.0, seed=123)
        a = snb_run(g, p)
        b = snb_run(g, p)
        assert np.array_equal(a.final_layout.coords, b.final_layout.coords)
        c = snb_run(g, SnbParams(sync_param=2.0, seed=124))
        assert not np.array_equal(a.final_layout.coords, c.final_layout.coords)

    def test_initial_layout_deterministic(self):
        g = cycle(5)
        assert np.array_equal(initial_layout(g, 7).coords, initial_layout(g, 7).coords)
        assert np.all(initial_layout(g, 7).coords >= 0)
        assert np.all(initial_layout(g, 7).coords < 1)

    def test_degenerate_graphs(self):
        with pytest.raises(DegenerateGraphError):
            snb_run(Graph(1, ()))
        with pytest.raises(DegenerateGraphError):
            snb_run(Graph(3, ()))

    def test_disconnected_allowed(self):
        g = Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
        r = snb_run(g, SnbParams(sync_param=2.0, seed=0))
        assert np.all(np.isfinite(r.final_layout.coords))

    def test_trajectory_capture(self):
        g = cycle(5)
        r = snb_run(g, SnbParams(sync_param=2.0, seed=0), capture_every=10)
        assert [t for t, _ in r.trajectory] == list(range(10, 101, 10))

    def test_run_is_a_chain_of_steps(self):
        # The timed loop and the one-step API advance the same way: every
        # captured frame is bitwise snb_step of the frame before it.  (That
        # needs log(M) to be the run's log M; snb_step says when it is not.)
        rng = random.Random(31)
        for seed in range(4):
            n = rng.randint(3, 12)
            g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            p = SnbParams(sync_param=rng.uniform(0.5, 4.0), seed=seed, total_multiplier=10)
            r = snb_run(g, p, capture_every=1)
            frames = [initial_layout(g, seed)] + [layout for _, layout in r.trajectory]
            assert len(frames) == r.iterations + 1
            for t in range(1, len(frames)):
                mag = magnitude(t - 1, g, p) if t > 1 else 1.0 / g.m
                want = snb_step(g, frames[t - 1], mag, p)
                assert want.iteration == frames[t].iteration == t
                assert np.array_equal(frames[t].coords, want.coords)
            assert np.array_equal(frames[-1].coords, r.final_layout.coords)

    # Only the last assertion may fail: a wrong premise fails the test.
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="snb_step takes M(t-1) as a float and log(1/m) != -log(m) at m = 22; "
        "ROADMAP item 4 has snb_step compute log M(t-1) as the run does",
    )
    def test_first_step_at_m_22(self):
        g = gen_scale_free(12, 1, seed=0, target_m=22)
        if g.m != 22 or math.log(1.0 / g.m) == -math.log(g.m):
            pytest.fail("the graph no longer has the edge count whose log differs")
        p = SnbParams(sync_param=compute_sync_param(g), seed=0)
        (_, frame1), *_ = snb_run(g, p, capture_every=1).trajectory
        want = snb_step(g, initial_layout(g, 0), 1.0 / g.m, p)
        assert np.array_equal(frame1.coords, want.coords)

    def test_sync_end_capture(self):
        g = cycle(10)
        p = SnbParams(sync_param=2.5, seed=0)
        r = snb_run(g, p)
        assert r.sync_end_layout is not None
        assert r.sync_end_layout.iteration == sync_phase_iterations(g, p) == 25

    def test_no_nan_random_corpus(self):
        # Mostly small graphs plus a tail up to n=150.
        rng = random.Random(99)
        sizes = [rng.randint(2, 30) for _ in range(185)] + [
            rng.randint(30, 80) for _ in range(10)
        ] + [rng.randint(80, 150) for _ in range(5)]
        for i, n in enumerate(sizes):
            m = rng.randint(max(1, n - 1), min(n * (n - 1) // 2, 3 * n))
            g = random_graph(n, m, rng)
            if g.m == 0:
                continue
            p = SnbParams(sync_param=rng.uniform(0.2, 4.0), seed=i)
            r = snb_run(g, p)
            assert np.all(np.isfinite(r.final_layout.coords))

    def test_wagner_circular_trend(self):
        # Expected-trend check: most seeds land all 8 vertices near one circle.
        g = gen_wagner()
        ok = 0
        for seed in range(20):
            r = snb_run(g, SnbParams(sync_param=4.0, seed=seed))
            c = r.final_layout.coords
            radii = np.sqrt(((c - c.mean(axis=0)) ** 2).sum(axis=1))
            if np.abs(radii - radii.mean()).max() / radii.mean() < 0.2:
                ok += 1
        assert ok > 10

    def test_sync_brings_clusters_together(self):
        # On clustered connected graphs, mean neighbor distance at the end of
        # the sync phase usually drops below the initial random layout's.
        rng = random.Random(17)
        wins = total = 0
        while total < 30:
            k = rng.randint(5, 8)
            g = clustered_connected_graph(rng.randint(2, 60 // k), k, 4, rng)
            if not (10 <= g.n <= 60) or not oracles.is_connected(g):
                continue
            total += 1
            p = SnbParams(sync_param=2.0, seed=total)
            r = snb_run(g, p)
            assert r.sync_end_layout is not None
            e = np.array(g.edges)

            def neighbor_dist(layout):
                c = normalize_layout(layout).coords
                d = c[e[:, 1]] - c[e[:, 0]]
                return float(np.sqrt((d * d).sum(axis=1)).mean())

            if neighbor_dist(r.sync_end_layout) < neighbor_dist(initial_layout(g, p.seed)):
                wins += 1
        assert wins >= 0.9 * total


class TestParams:
    def test_requires_s_below_b(self):
        with pytest.raises(ValueError):
            SnbParams(sync_param=10.0, total_multiplier=20)
        with pytest.raises(ValueError):
            SnbParams(sync_param=0.0)
        SnbParams(sync_param=9.99, total_multiplier=20)  # boundary ok

    def test_compute_sync_param_capped(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(5, 30)
            m = min(40, n * (n - 1) // 2)
            g = random_connected_graph(n, m, rng)
            s = compute_sync_param(g)
            assert 0 < s <= 4.0
