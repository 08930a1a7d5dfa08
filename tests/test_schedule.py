import math
import random
from fractions import Fraction

import pytest

from conftest import cycle, stub_graph
from snburst import (
    DegenerateGraphError,
    Graph,
    SnbParams,
    compute_sync_param,
    gen_queen,
    gen_wagner,
    log_magnitude,
    magnitude,
    sync_phase_iterations,
    total_magnitude_curve,
    turning_point_magnitude,
)


C4 = cycle(4)  # n=4, m=4


class TestMagnitude:
    def test_unit_base(self):
        # 2 t m^2 / (s n^2 (n-1)) = 1 at t=1 for s = 2m^2/(n^2(n-1)) = 2/3
        p = SnbParams(sync_param=2.0 / 3.0)
        assert magnitude(1, C4, p) == pytest.approx(1.0, rel=1e-12)

    def test_queen_turning_point_golden(self):
        # (2*728^2 / (64*63))^10 by exact rational arithmetic
        g = gen_queen(8, 8)
        exact = float(Fraction(2 * 728**2, 64 * 63) ** 10)
        assert turning_point_magnitude(g) == pytest.approx(exact, rel=1e-9)
        base = Fraction(2 * 728**2, 64 * 63)
        assert float(base) == pytest.approx(262.888, rel=1e-4)

    def test_monotone_random(self):
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(2, 60)
            m = rng.randint(1, n * (n - 1) // 2)
            g = stub_graph(n, m)
            s = rng.uniform(0.1, 9.9)
            t = rng.randint(1, 10**6)
            p = SnbParams(sync_param=s)
            assert log_magnitude(t + 1, g, p) > log_magnitude(t, g, p)

    def test_monotone_on_real_graph(self):
        p = SnbParams(sync_param=1.0)
        vals = [log_magnitude(t, C4, p) for t in range(1, 200)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_overflow_is_inf(self):
        # log M(1) is about 6.9e3 here, past the 709.8 where exp overflows.
        p = SnbParams(sync_param=1e-300)
        assert log_magnitude(1, gen_wagner(), p) > 709.8
        assert magnitude(1, gen_wagner(), p) == math.inf

    def test_degenerate_graph(self):
        g = Graph(1, ())
        with pytest.raises(DegenerateGraphError):
            magnitude(1, g, SnbParams(sync_param=1.0))
        with pytest.raises(DegenerateGraphError):
            turning_point_magnitude(Graph(3, ()))


class TestTurningPoint:
    def test_c4_golden(self):
        exact = float(Fraction(32, 12) ** 10)  # (8/3)^10
        assert turning_point_magnitude(C4) == pytest.approx(exact, rel=1e-9)

    def test_path3_golden(self):
        g = Graph(3, ((0, 1), (1, 2)))
        exact = float(Fraction(8, 6) ** 10)  # about 17.76
        assert turning_point_magnitude(g) == pytest.approx(exact, rel=1e-9)
        assert exact == pytest.approx(17.7576, rel=1e-4)

    def test_defining_identity(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(3, 150)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = stub_graph(n, m)
            mtp = turning_point_magnitude(g)
            lhs = 2.0 * mtp**0.9 * m**2
            rhs = mtp * n * (n - 1)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestCurve:
    def test_sign_change_matches_turning_point(self):
        p = SnbParams(sync_param=1.0)
        mtp = turning_point_magnitude(C4)
        for t, ma, mr, f in total_magnitude_curve(C4, p, 80):
            if magnitude(t, C4, p) < mtp:
                assert f > 0
            elif magnitude(t, C4, p) > mtp:
                assert f < 0

    def test_single_sign_change(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(3, 40)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = stub_graph(n, m)
            s = rng.uniform(0.5, 6.0)
            p = SnbParams(sync_param=s, total_multiplier=20)
            rows = total_magnitude_curve(g, p, 20 * n)
            signs = [f > 0 for _, _, _, f in rows if f != 0]
            changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            if magnitude(1, g, p) < turning_point_magnitude(g):
                assert changes == 1

    def test_f_zero_at_turning_point(self):
        # At M = M(t_p) the defining identity forces f = 0.
        mtp = turning_point_magnitude(C4)
        f = 2.0 * mtp**0.9 * 16 - mtp * 12
        assert abs(f) <= 1e-9 * mtp * 12

    def test_row_count(self):
        rows = total_magnitude_curve(C4, SnbParams(sync_param=1.0), 1)
        assert len(rows) == 1 and rows[0][0] == 1


class TestSyncParam:
    def test_complete_graph_cap(self):
        g = Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
        assert compute_sync_param(g) == 4.0

    def test_star_k19(self):
        # Betweenness (36, 0 x9), population stdev 10.8: s = 20/10.8 < 4.
        g = Graph(10, tuple((0, i) for i in range(1, 10)))
        assert compute_sync_param(g) == pytest.approx(20.0 / 10.8)

    def test_path3_capped(self):
        g = Graph(3, ((0, 1), (1, 2)))
        # stdev = sqrt(2)/3, 20/stdev >> 4, so the cap applies.
        assert compute_sync_param(g) == 4.0

    def test_sync_phase_iterations(self):
        p = SnbParams(sync_param=2.5)
        assert sync_phase_iterations(C4, p) == 10
        p = SnbParams(sync_param=0.3)
        assert sync_phase_iterations(C4, p) == 2  # ceil(1.2)
