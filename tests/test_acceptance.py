"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package and prints a
single PASS/FAIL line so the whole gate can be read off the test log.
Run with `pytest -s tests/test_acceptance.py` to see the lines live.
"""

import math
import random
import statistics
import warnings

import numpy as np
import pytest

import oracles
from conftest import (
    clustered_connected_graph,
    random_connected_graph,
    random_graph,
    stub_graph,
)
from snburst import (
    Layout,
    SnbParams,
    avg_adjacent_angle,
    avg_crossing_angle,
    compute_sync_param,
    edge_length_stdev,
    find_crossings,
    FrParams,
    fr_run,
    gen_heawood,
    gen_queen,
    gen_wagner,
    initial_layout,
    magnitude,
    min_pair_distance_scaled,
    normalize_layout,
    snb_run,
    snb_step,
    sync_phase_iterations,
    total_magnitude_curve,
    turning_point_magnitude,
    vertex_distribution,
)
from snburst.bench import bucketize, run_one


def _report(num, desc, passed):
    print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {desc}")


def test_criterion_01_generator_fidelity():
    desc = "named generators hit the published vertex/edge counts"
    ok = False
    try:
        assert (gen_queen(8, 8).n, gen_queen(8, 8).m) == (64, 728)
        assert (gen_queen(15, 5).n, gen_queen(15, 5).m) == (75, 935)
        assert (gen_wagner().n, gen_wagner().m) == (8, 12)
        assert (gen_heawood().n, gen_heawood().m) == (14, 21)
        ok = True
    finally:
        _report(1, desc, ok)


def test_criterion_02_turning_point_identity():
    desc = "turning-point magnitude satisfies its defining identity; the"
    desc += " attraction/repulsion balance changes sign exactly once"
    ok = False
    try:
        rng = random.Random(1234)
        for _ in range(1000):
            n = rng.randint(3, 200)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = stub_graph(n, m)
            mtp = turning_point_magnitude(g)
            lhs = 2.0 * mtp**0.9 * m * m
            rhs = mtp * n * (n - 1)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
            s = rng.uniform(0.2, 8.0)
            p = SnbParams(sync_param=s)
            if magnitude(1, g, p) < mtp:
                # Sign of f(t) flips from + to - exactly at the first t with
                # M(t) > M(t_p); log-space check over the whole 20n window.
                t = np.arange(1, 20 * n + 1, dtype=float)
                log_m_t = 10.0 * (
                    np.log(2.0 * t * m * m) - math.log(s * n * n * (n - 1))
                )
                log_mtp = math.log(mtp)
                signs = np.sign(log_mtp - log_m_t)
                nonzero = signs[signs != 0]
                flips = int(np.count_nonzero(nonzero[1:] != nonzero[:-1]))
                assert flips == 1
        ok = True
    finally:
        _report(2, desc, ok)


def test_criterion_03_iteration_budget_and_sign_change():
    desc = "runs take exactly 20n iterations; the balance flips at ceil(s*n) +/- 1"
    ok = False
    try:
        rng = random.Random(55)
        for _ in range(20):
            n = rng.randint(5, 60)
            m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
            g = random_connected_graph(n, m, rng)
            s = rng.uniform(0.5, 6.0)
            p = SnbParams(sync_param=s, seed=0)
            r = snb_run(g, p)
            assert r.iterations == 20 * g.n
            assert r.final_layout.iteration == 20 * g.n
            rows = total_magnitude_curve(g, p, 20 * g.n)
            flip = next((t for t, _, _, f in rows if f < 0), None)
            assert flip is not None
            assert abs(flip - math.ceil(s * g.n)) <= 1
        ok = True
    finally:
        _report(3, desc, ok)


def test_criterion_04_similarity_invariance():
    desc = "one layout step is bitwise identical under translation and uniform scaling"
    ok = False
    try:
        rng = random.Random(77)
        for trial in range(100):
            n = rng.randint(4, 16)
            m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
            g = random_graph(n, m, rng)
            # Dyadic-rational inputs with power-of-two scalings and integer
            # translations keep every intermediate float operation exact, so
            # equality can be demanded bit for bit.
            coords = np.array(
                [
                    [rng.randrange(1 << 20) * 2.0**-20, rng.randrange(1 << 20) * 2.0**-20]
                    for _ in range(n)
                ]
            )
            scale = 2.0 ** rng.randint(-8, 8)
            shift = np.array(
                [rng.randint(-1000, 1000), rng.randint(-1000, 1000)], dtype=float
            )
            p = SnbParams(sync_param=2.0, seed=trial)
            mag = 2.0 ** rng.randint(-6, 6)
            base = snb_step(g, Layout(coords), mag, p)
            moved = snb_step(g, Layout(coords * scale + shift), mag, p)
            assert np.array_equal(base.coords, moved.coords)
        ok = True
    finally:
        _report(4, desc, ok)


def test_criterion_05_metric_oracle_equivalence():
    desc = "every aesthetic metric matches an independent brute-force oracle"
    ok = False
    try:
        rng = random.Random(500)
        for _ in range(200):
            n = rng.randint(3, 20)
            m = rng.randint(2, min(40, n * (n - 1) // 2))
            g = random_graph(n, m, rng)
            coords = np.array([[rng.random(), rng.random()] for _ in range(n)])
            layout = Layout(coords)
            got_pairs, _ = find_crossings(g, layout)
            assert sorted(map(tuple, got_pairs)) == sorted(
                oracles.crossing_pairs(g, coords)
            )
            want_x = oracles.avg_crossing_angle(g, coords)
            assert abs(avg_crossing_angle(g, layout) - want_x) <= 1e-9 * max(1.0, want_x)
            got_a = avg_adjacent_angle(g, layout)
            want_a = oracles.avg_adjacent_angle(g, coords)
            if want_a is None:
                assert got_a is None
            else:
                assert abs(got_a - want_a) <= 1e-9 * max(1.0, want_a)
            assert edge_length_stdev(g, layout) == pytest.approx(
                oracles.edge_length_stdev(g, coords), rel=1e-9, abs=1e-12
            )
            assert min_pair_distance_scaled(layout) == pytest.approx(
                oracles.min_pair_distance_scaled(coords), rel=1e-9
            )
            want_d, _, w, h = oracles.vertex_distribution(coords.tolist())
            got_d = vertex_distribution(layout)
            assert got_d.distribution == pytest.approx(want_d, rel=1e-9)
            assert got_d.area == pytest.approx(w * h, rel=1e-9)
        ok = True
    finally:
        _report(5, desc, ok)


def test_criterion_06_packing_soundness():
    desc = "vertex-distribution circles are disjoint, inside the box, with D in (0, 1]"
    ok = False
    try:
        rng = random.Random(600)
        for _ in range(100):
            # n >= 5 guarantees an interior vertex: with four or fewer
            # points every vertex can lie on the bounding box, making D
            # legitimately zero.
            n = rng.randint(5, 40)
            coords = np.array([[rng.random(), rng.random()] for _ in range(n)])
            vd = vertex_distribution(Layout(coords))
            assert 0.0 < vd.distribution <= 1.0 + 1e-12
            # Reproduce the internal rescaling to check the geometry.
            lo = coords.min(axis=0)
            side = max(np.ptp(coords[:, 0]), np.ptp(coords[:, 1]))
            c = (coords - lo) / side
            w = np.ptp(coords[:, 0]) / side
            h = np.ptp(coords[:, 1]) / side
            r = np.asarray(vd.radii)
            for i in range(n):
                assert c[i, 0] >= r[i] - 1e-12 and c[i, 0] <= w - r[i] + 1e-12
                assert c[i, 1] >= r[i] - 1e-12 and c[i, 1] <= h - r[i] + 1e-12
                for j in range(i + 1, n):
                    assert math.dist(c[i], c[j]) >= r[i] + r[j] - 1e-12
        ok = True
    finally:
        _report(6, desc, ok)


def test_criterion_07_sync_phase_brings_neighbors_close():
    desc = "the attraction-dominated phase pulls interconnected vertices together"
    ok = False
    try:
        rng = random.Random(700)
        wins = total = 0
        while total < 100:
            k = rng.randint(5, 8)
            g = clustered_connected_graph(rng.randint(2, 60 // k), k, 4, rng)
            if not (10 <= g.n <= 60) or not oracles.is_connected(g):
                continue
            total += 1
            p = SnbParams(sync_param=2.0, seed=total)
            r = snb_run(g, p)
            e = np.array(g.edges)

            def neighbor_dist(layout):
                c = normalize_layout(layout).coords
                d = c[e[:, 1]] - c[e[:, 0]]
                return float(np.sqrt((d * d).sum(axis=1)).mean())

            if neighbor_dist(r.sync_end_layout) < neighbor_dist(
                initial_layout(g, p.seed)
            ):
                wins += 1
        assert wins >= 95, f"only {wins}/100 runs improved neighbor distance"
        ok = True
    finally:
        _report(7, desc, ok)


def test_criterion_08_vertex_distribution_trend():
    desc = "bucket-mean vertex distribution: the uniform-magnitude layout beats FR"
    ok = False
    try:
        rng = random.Random(800)
        records = []
        for i in range(50):
            n = rng.randint(55, 100)
            m = round(1.3 * n)
            g = random_connected_graph(n, m, rng)
            records.append(run_one(g, "snb", seed=i, graph_id=f"r{i}"))
            records.append(run_one(g, "fr", seed=i, graph_id=f"r{i}"))
        buckets = {}
        for s in bucketize(records):
            buckets.setdefault(s.bucket_index, {})[s.algorithm] = s.means[
                "mean_vertex_distribution"
            ]
        assert buckets, "no buckets produced"
        for idx, by_alg in sorted(buckets.items()):
            assert set(by_alg) == {"snb", "fr"}
            assert by_alg["snb"] > by_alg["fr"], (
                f"bucket {idx}: snb D {by_alg['snb']:.3f} <= fr D {by_alg['fr']:.3f}"
            )
        ok = True
    finally:
        _report(8, desc, ok)


def test_criterion_09_per_iteration_speed():
    desc = "per-iteration wall time beats the all-pairs FR baseline (soft, hardware-dependent)"
    g = gen_queen(8, 8)
    # Warm-up: the first run of each pays one-off allocator and cache costs
    # that would otherwise be charged to whichever algorithm goes first.
    snb_run(g, SnbParams(sync_param=4.0, seed=0))
    fr_run(g, FrParams(seed=0))
    snb_times = []
    fr_times = []
    # Both time the same five starts.
    for seed in range(5):
        snb_times.append(snb_run(g, SnbParams(sync_param=4.0, seed=seed)).wall_time_per_iteration)
        fr_times.append(fr_run(g, FrParams(seed=seed)).wall_time_per_iteration)
    faster = statistics.median(snb_times) < statistics.median(fr_times)
    _report(9, desc, faster)
    if not faster:
        # Timing on shared hardware can invert; flag loudly without failing
        # the gate, per the comparison's expected-trend (not hard) status.
        warnings.warn(
            "uniform-magnitude stepping measured slower per iteration than FR: "
            f"median {statistics.median(snb_times):.2e}s vs {statistics.median(fr_times):.2e}s"
        )


def test_criterion_10_edge_length_spread_trend():
    desc = "edge-length spread exceeds FR's on the reference graphs; symmetric"
    desc += " graphs land near-circular"
    ok = False
    try:
        for g in (gen_queen(8, 8), gen_wagner(), gen_heawood()):
            s = compute_sync_param(g)
            snb_vals = []
            fr_vals = []
            for seed in range(20):
                r1 = snb_run(g, SnbParams(sync_param=s, seed=seed))
                r2 = fr_run(g, FrParams(seed=seed))
                snb_vals.append(edge_length_stdev(g, normalize_layout(r1.final_layout)))
                fr_vals.append(edge_length_stdev(g, normalize_layout(r2.final_layout)))
            assert statistics.mean(snb_vals) > statistics.mean(fr_vals), (
                f"n={g.n}: {statistics.mean(snb_vals):.4f} <= {statistics.mean(fr_vals):.4f}"
            )
        wagner = gen_wagner()
        circular = 0
        for seed in range(20):
            r = snb_run(wagner, SnbParams(sync_param=4.0, seed=seed))
            c = r.final_layout.coords
            radii = np.sqrt(((c - c.mean(axis=0)) ** 2).sum(axis=1))
            if np.abs(radii - radii.mean()).max() / radii.mean() < 0.2:
                circular += 1
        assert circular > 10, f"only {circular}/20 seeds were near-circular"
        ok = True
    finally:
        _report(10, desc, ok)
