import random

import numpy as np
import pytest

import oracles
from conftest import random_connected_graph, random_graph
from snburst import fr
from snburst import (
    DegenerateGraphError,
    FrParams,
    Graph,
    fr_run,
    fr_temperature,
    initial_layout,
)


def triangle():
    return Graph(3, ((0, 1), (1, 2), (0, 2)))


class TestTemperature:
    def test_linear_decay(self):
        # t0 * (T - t + 1) / T
        assert fr_temperature(1, 10, 0.1) == pytest.approx(0.1)
        assert fr_temperature(10, 10, 0.1) == pytest.approx(0.01)
        assert fr_temperature(5, 10, 0.1) == pytest.approx(0.06)

    def test_strictly_decreasing(self):
        vals = [fr_temperature(t, 200, 0.1) for t in range(1, 201)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)


class TestRun:
    def test_deterministic(self):
        g = random_connected_graph(15, 25, random.Random(0))
        a = fr_run(g, FrParams(seed=5))
        b = fr_run(g, FrParams(seed=5))
        assert np.array_equal(a.final_layout.coords, b.final_layout.coords)
        c = fr_run(g, FrParams(seed=6))
        assert not np.array_equal(a.final_layout.coords, c.final_layout.coords)

    def test_default_iteration_budget(self):
        g = triangle()
        r = fr_run(g, FrParams(seed=0))
        assert r.iterations == 60  # 20 * n
        for k in (1, 7):
            r = fr_run(g, FrParams(seed=0, total_multiplier=k))
            assert r.iterations == r.final_layout.iteration == k * g.n

    def test_stays_inside_area(self):
        rng = random.Random(1)
        for seed in range(5):
            g = random_connected_graph(20, 35, rng)
            r = fr_run(g, FrParams(seed=seed))
            assert np.all(r.final_layout.coords >= 0.0)
            assert np.all(r.final_layout.coords <= 1.0)

    def test_triangle_near_equilateral(self):
        g = triangle()
        for seed in range(20):
            r = fr_run(g, FrParams(seed=seed))
            c = r.final_layout.coords
            lengths = [float(np.linalg.norm(c[a] - c[b])) for a, b in g.edges]
            assert max(lengths) / min(lengths) < 1.05

    def test_displacement_capped_by_temperature(self):
        g = random_connected_graph(12, 18, random.Random(2))
        r = fr_run(g, FrParams(seed=3), capture_every=1)
        frames = [coords for _, coords in r.trajectory]
        prev = frames[0]
        total = r.iterations
        t0 = fr.INITIAL_TEMPERATURE
        for t, cur in zip(range(2, total + 1), frames[1:]):
            moved = np.sqrt(((cur.coords - prev.coords) ** 2).sum(axis=1))
            # Clipping to the area can only shrink a move, never extend it.
            assert np.all(moved <= fr_temperature(t, total, t0) + 1e-12)
            prev = cur

    def test_one_iteration_matches_scalar_oracle(self):
        rng = random.Random(8)
        for seed in range(30):
            n = rng.randint(2, 25)
            g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
            # FR on the unit area starts from the same splitmix64 stream as SnB.
            start = initial_layout(g, seed).coords.tolist()
            r = fr_run(g, FrParams(seed=seed, total_multiplier=1), capture_every=1)
            t, first = r.trajectory[0]
            want = oracles.fr_iteration(g, start, fr_temperature(1, n, 0.1))
            assert t == 1
            assert np.allclose(first.coords, want, rtol=0, atol=1e-12)

    def test_coincident_vertices_separate(self, monkeypatch):
        # A first step far above the area size clips vertices 2 and 3 of this
        # edgeless graph into one corner, so iteration 2 starts from a
        # coincident pair and must push it apart along a hashed direction.
        monkeypatch.setattr(fr, "INITIAL_TEMPERATURE", 10.0)
        g = Graph(6, ())
        params = FrParams(seed=0, total_multiplier=1)
        r = fr_run(g, params, capture_every=1)
        first = r.trajectory[0][1].coords
        assert np.array_equal(first[2], first[3])
        final = r.final_layout.coords
        assert np.all(np.isfinite(final))
        assert len({tuple(p) for p in final}) == g.n
        again = fr_run(g, params).final_layout.coords
        assert np.array_equal(final, again)

    def test_param_validation(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="total_multiplier"):
                FrParams(total_multiplier=k)

    def test_degenerate_graph(self):
        with pytest.raises(DegenerateGraphError):
            fr_run(Graph(1, ()))

    def test_record_fields(self):
        g = triangle()
        r = fr_run(g, FrParams(seed=0))
        assert (r.graph_id, r.algorithm) == ("", "fr")
        assert r.wall_time_total > 0
        assert r.wall_time_per_iteration == pytest.approx(
            r.wall_time_total / r.iterations
        )
