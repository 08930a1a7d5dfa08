import math
import random
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest

import oracles
from conftest import random_connected_graph, random_graph, random_layout_coords
from snburst import layout as layout_mod
from snburst import metrics
from snburst import (
    FrParams,
    Graph,
    Layout,
    MetricsReport,
    SnbParams,
    avg_adjacent_angle,
    avg_crossing_angle,
    compute_metrics,
    count_crossings,
    edge_length_stdev,
    find_crossings,
    fr_run,
    gen_queen,
    gen_wagner,
    min_pair_distance_scaled,
    snb_run,
    vertex_distribution,
)


def L(*points):
    return Layout(np.array(points, dtype=float))


class TestCrossings:
    def test_k4_convex_position(self):
        # Four corners of a square, all six edges: only the two diagonals cross.
        g = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
        layout = L((0, 0), (1, 0), (1, 1), (0, 1))
        assert count_crossings(g, layout) == 1

    def test_concurrent_diameters_count_pairwise(self):
        # Four diameters of a circle all meet at the center: C(4,2) = 6 pairs.
        pts = [
            (math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)
        ]
        g = Graph(8, tuple((k, k + 4) for k in range(4)))
        assert count_crossings(g, L(*pts)) == 6

    def test_shared_vertex_never_counts(self):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        assert count_crossings(g, L((0, 0), (1, 0), (0.5, 1))) == 0

    def test_endpoint_on_segment_counts(self):
        g = Graph(4, ((0, 1), (2, 3)))
        layout = L((0, 0), (2, 0), (1, 0), (1, 1))
        assert count_crossings(g, layout) == 1

    def test_collinear_overlap_counts(self):
        g = Graph(4, ((0, 1), (2, 3)))
        layout = L((0, 0), (2, 0), (1, 0), (3, 0))
        assert count_crossings(g, layout) == 1

    def test_collinear_disjoint_does_not_count(self):
        g = Graph(4, ((0, 1), (2, 3)))
        layout = L((0, 0), (1, 0), (2, 0), (3, 0))
        assert count_crossings(g, layout) == 0

    @pytest.mark.parametrize("point, crosses", [
        ((0.5, 5.0), False), ((0.5, 0.0), True), ((1.0, 0.0), True), ((2.0, 0.0), False),
    ], ids=["off-line", "inside", "endpoint", "collinear-outside"])
    def test_zero_length_edge_is_a_point(self, point, crosses):
        # One edge has coincident endpoints: it crosses the segment (0, 0)-(1, 0)
        # only by lying on it, whichever of the two edges comes first.
        g = Graph(4, ((0, 1), (2, 3)))
        for coords in ([point, point, (0.0, 0.0), (1.0, 0.0)],
                       [(0.0, 0.0), (1.0, 0.0), point, point]):
            coords = np.array(coords)
            assert count_crossings(g, Layout(coords)) == int(crosses)
            assert oracles.crossing_pairs(g, coords) == ([(0, 1)] if crosses else [])

    def test_perpendicular_crossing_angle(self):
        g = Graph(4, ((0, 1), (2, 3)))
        layout = L((0, 0), (2, 0), (1, -1), (1, 1))
        assert avg_crossing_angle(g, layout) == pytest.approx(90.0)

    def test_slope_zero_and_one_give_45(self):
        g = Graph(4, ((0, 1), (2, 3)))
        layout = L((0, 0.5), (1, 0.5), (0, 0), (1, 1))
        assert avg_crossing_angle(g, layout) == pytest.approx(45.0)

    def test_planar_layout_scores_90(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert avg_crossing_angle(g, L((0, 0), (1, 0), (2, 1))) == 90.0

    def test_matches_oracle_random(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(4, 20)
            m = rng.randint(3, min(40, n * (n - 1) // 2))
            g = random_graph(n, m, rng)
            coords = random_layout_coords(n, rng)
            layout = Layout(coords)
            got_pairs, _ = find_crossings(g, layout)
            oracle_pairs = oracles.crossing_pairs(g, coords)
            assert sorted(map(tuple, got_pairs)) == sorted(oracle_pairs)
            if oracle_pairs:
                assert avg_crossing_angle(g, layout) == pytest.approx(
                    oracles.avg_crossing_angle(g, coords), rel=1e-9
                )


class TestCrossingBlocks:
    """find_crossings walks row blocks of edges; the blocks must not show."""

    @staticmethod
    def cases():
        rng = random.Random(16)
        for _ in range(6):
            n = rng.randint(8, 16)
            g = random_graph(n, rng.randint(20, min(60, n * (n - 1) // 2)), rng)
            yield g, random_layout_coords(n, rng)
            # Distinct integer-lattice points: collinear and touching pairs.
            pts = rng.sample([(x, y) for x in range(4) for y in range(4)], n)
            yield g, np.array(pts, dtype=float)
            # Lattice points that may coincide: zero-length edges.
            pts = [(rng.randrange(3), rng.randrange(3)) for _ in range(n)]
            yield g, np.array(pts, dtype=float)
        for r, c in ((4, 4), (3, 5)):
            g = gen_queen(r, c)
            grid = np.array([(i % c, i // c) for i in range(g.n)], dtype=float)
            yield g, grid

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_blocks_match_oracle_and_single_block(self, monkeypatch, rows):
        partial_last_block = False
        for g, coords in self.cases():
            layout = Layout(coords)
            monkeypatch.setattr(metrics, "CROSSING_BLOCK_PAIRS", g.m * g.m)
            whole_pairs, whole_angles = find_crossings(g, layout)
            monkeypatch.setattr(metrics, "CROSSING_BLOCK_PAIRS", rows * g.m)
            pairs, angles = find_crossings(g, layout)
            assert np.array_equal(pairs, whole_pairs)
            assert np.array_equal(angles, whole_angles)
            assert pairs.dtype == whole_pairs.dtype and angles.dtype == whole_angles.dtype
            assert list(map(tuple, pairs.tolist())) == oracles.crossing_pairs(g, coords)
            partial_last_block |= (g.m - 1) % rows != 0
        assert rows == 1 or partial_last_block

    def test_too_few_edges(self):
        for g in (Graph(2, ()), Graph(2, ((0, 1),))):
            pairs, angles = find_crossings(g, L((0, 0), (1, 1)))
            assert pairs.shape == (0, 2) and angles.shape == (0,)

    def test_metrics_memory_bounded(self):
        # All m(m-1)/2 = 3.4 M edge pairs of queen 12x12 at once would trace
        # ~475 MB, and holding find_crossings' pairs and angles twice about
        # 30 MiB; keeping the 779 K angles, as blocks and joined, about
        # 12 MiB.  Scoring one block at a time traces about 4 MiB, nothing
        # of it growing with the number of crossings.
        g = gen_queen(12, 12)
        layout = Layout(np.random.default_rng(0).random((g.n, 2)))
        tracemalloc.start()
        try:
            compute_metrics(g, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_metrics_memory_bounded_when_boxes_meet(self):
        # On a random queen 16x16 layout (m = 6320) 45% of the boxes meet,
        # and 4.56 M pairs cross.  With every kept pair of a 2^16-pair block
        # tested at once the pass traced 4.3 MiB; in chunks of
        # CROSSING_CHUNK_PAIRS kept pairs it traces 2.0 MiB.  Bound: that
        # plus 1 MiB.
        g = gen_queen(16, 16)
        layout = Layout(np.random.default_rng(0).random((g.n, 2)))
        tracemalloc.start()
        try:
            compute_metrics(g, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("chunk", [1, 5])
    def test_chunks_hold_at_most_chunk_pairs(self, monkeypatch, chunk):
        # Every chunk's crossings come from at most `chunk` kept pairs, and
        # together they are the pass's crossings in order.
        monkeypatch.setattr(metrics, "CROSSING_CHUNK_PAIRS", chunk)
        for g, coords in self.cases():
            blocks = list(metrics._crossing_blocks(g, Layout(coords)))
            assert all(len(ii) <= chunk for ii, _, _ in blocks)
            pairs = [(i, j) for ii, jj, _ in blocks for i, j in zip(ii.tolist(), jj.tolist())]
            assert pairs == oracles.crossing_pairs(g, coords)


class TestCrossingsMatchGatheredPass:
    """find_crossings is bitwise equal to the frozen gathered pass: the same
    pairs in the same order, the same angles, the same dtypes."""

    @staticmethod
    def cases():
        rng = random.Random(21)
        for _ in range(4):
            n = rng.randint(8, 20)
            g = random_graph(n, rng.randint(20, min(70, n * (n - 1) // 2)), rng)
            yield "random", g, random_layout_coords(n, rng)
        g = gen_queen(6, 6)
        yield "random", g, np.random.default_rng(3).random((g.n, 2))
        for g, seed in ((gen_queen(6, 6), 0), (gen_queen(5, 3), 1), (random_connected_graph(30, 60, rng), 2)):
            final = snb_run(g, SnbParams(sync_param=4.0, seed=seed)).final_layout
            yield "snb-final", g, final.coords
        # Vertices on a 3 x 3 lattice, several per point: zero-length edges
        # and edges touching at an endpoint or a midpoint.
        for g in (gen_queen(4, 4), random_graph(14, 40, rng)):
            yield "coincident-lattice", g, np.array(
                [(rng.randrange(3), rng.randrange(3)) for _ in range(g.n)], dtype=float
            )
        # Vertices on integer grid points: collinear overlapping edges.
        for r, c in ((5, 5), (3, 6)):
            g = gen_queen(r, c)
            yield "integer-grid", g, np.array([(i % c, i // c) for i in range(g.n)], dtype=float)
        for g, seed in ((gen_queen(6, 6), 0), (gen_queen(5, 3), 1)):
            yield "fr-final", g, fr_run(g, FrParams(seed=seed)).final_layout.coords
        # The lattices scaled by 2^30: CROSSING_EPS is below half an ulp of
        # the coordinates, so it no longer widens a box, and touching
        # endpoints lie exactly on box edges.
        for g in (gen_queen(4, 4), random_graph(14, 40, rng)):
            yield "coincident-lattice-2^30", g, 2.0**30 * np.array(
                [(rng.randrange(3), rng.randrange(3)) for _ in range(g.n)], dtype=float
            )
        for r, c in ((5, 5), (3, 6)):
            g = gen_queen(r, c)
            yield "integer-grid-2^30", g, 2.0**30 * np.array(
                [(i % c, i // c) for i in range(g.n)], dtype=float
            )
        # Nearly collinear vertices at scale 1e9, off the line by about the
        # orientation rounding error (~1e2, far beyond CROSSING_EPS):
        # segments apart along the line next to overlapping ones.
        x = np.sort(np.random.default_rng(4).random(24)) * 1e9
        y = 0.37 * x + np.random.default_rng(5).normal(0.0, 1e-7, 24)
        yield "near-collinear-1e9", random_graph(24, 60, rng), np.column_stack([x, y])
        # No two boxes meet: every block has zero candidate pairs.
        yield "boxes-apart", Graph(20, tuple((k, k + 1) for k in range(0, 20, 2))), np.array(
            [(k, k % 2) for k in range(20)], dtype=float
        )

    @staticmethod
    def assert_same(g, layout):
        pairs, angles = find_crossings(g, layout)
        want_pairs, want_angles = oracles.gathered_find_crossings(g, layout)
        assert pairs.dtype == want_pairs.dtype and angles.dtype == want_angles.dtype
        assert np.array_equal(pairs, want_pairs)
        assert np.array_equal(angles, want_angles)
        return len(pairs)

    @pytest.mark.parametrize("rows", [None, 1, 3, 7])
    def test_bitwise_equal(self, monkeypatch, rows):
        kinds = set()
        for kind, g, coords in self.cases():
            if rows is not None:
                monkeypatch.setattr(metrics, "CROSSING_BLOCK_PAIRS", rows * g.m)
            if self.assert_same(g, Layout(coords)):
                kinds.add(kind)
        # Every kind finds crossings but the one whose boxes never meet.
        assert kinds == {
            "random", "snb-final", "fr-final", "coincident-lattice", "integer-grid",
            "coincident-lattice-2^30", "integer-grid-2^30", "near-collinear-1e9",
        }

    @pytest.mark.parametrize("chunk", [5, 64])
    def test_bitwise_equal_in_chunks(self, monkeypatch, chunk):
        # Chunks of kept pairs smaller than a block row, at the default
        # block and at three rows per block.
        monkeypatch.setattr(metrics, "CROSSING_CHUNK_PAIRS", chunk)
        for rows in (None, 3):
            for kind, g, coords in self.cases():
                if rows is not None:
                    monkeypatch.setattr(metrics, "CROSSING_BLOCK_PAIRS", rows * g.m)
                self.assert_same(g, Layout(coords))

    @pytest.mark.parametrize("rows", [None, 1, 3, 7])
    def test_report_matches_find_crossings(self, monkeypatch, rows):
        # compute_metrics scores the angle blocks as they come; its count
        # is that of find_crossings on the normalized layout, and its mean
        # the exact mean of those angles, rounded once, at any block size.
        rng = random.Random(8)
        g = random_graph(16, 50, rng)
        square = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
        extra = [
            ("collinear", g, np.column_stack([np.arange(16.0), 2.0 * np.arange(16.0)])),
            ("planar", square, np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)),
            ("coincident", g, np.array([(k % 3, k // 8) for k in range(16)], dtype=float)),
        ]
        crossings = {}
        for kind, g, coords in chain(self.cases(), extra):
            if rows is not None:
                monkeypatch.setattr(metrics, "CROSSING_BLOCK_PAIRS", rows * g.m)
            layout = Layout(coords)
            norm = layout_mod.normalize_layout(layout)
            pairs, angles = find_crossings(g, norm)
            report = compute_metrics(g, layout)
            assert report.crossings == count_crossings(g, norm) == len(pairs)
            assert report.avg_crossing_angle == (oracles.exact_mean(angles) if len(angles) else 90.0)
            crossings[kind] = crossings.get(kind, 0) + len(pairs)
        assert crossings["planar"] == 0
        assert crossings["collinear"] > 0 and crossings["coincident"] > 0

    @pytest.mark.parametrize("edges, coords", [
        ((), [(0, 0), (1, 1), (2, 0), (3, 1)]),
        (((0, 1),), [(0, 0), (1, 1), (2, 0), (3, 1)]),
        (((0, 1), (2, 3)), [(0, 0), (1, 1), (0, 1), (1, 0)]),
        (((0, 1), (2, 3)), [(0, 0), (1, 1), (2, 0), (3, 1)]),
        (((0, 1), (1, 2)), [(0, 0), (1, 1), (0, 1), (1, 0)]),
        (((0, 1), (2, 3)), [(0, 0), (0, 0), (0, 0), (1, 0)]),
    ], ids=["m0", "m1", "m2-cross", "m2-apart", "m2-shared", "m2-point-on-end"])
    def test_few_edges(self, edges, coords):
        self.assert_same(Graph(4, edges), L(*coords))


class TestAdjacentAngles:
    def test_collinear_path_is_180(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert avg_adjacent_angle(g, L((0, 0), (1, 0), (2, 0))) == pytest.approx(180.0)

    def test_right_angle_path(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert avg_adjacent_angle(g, L((0, 0), (1, 0), (1, 1))) == pytest.approx(90.0)

    def test_compass_star(self):
        # Center plus N/E/S/W: four 90-degree pairs and two 180-degree pairs.
        g = Graph(5, tuple((0, i) for i in range(1, 5)))
        layout = L((0, 0), (0, 1), (1, 0), (0, -1), (-1, 0))
        assert avg_adjacent_angle(g, layout) == pytest.approx(120.0)

    def test_perfect_matching_is_none(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert avg_adjacent_angle(g, L((0, 0), (1, 0), (0, 1), (1, 1))) is None

    def test_zero_length_edge_scores_zero(self):
        # Vertex 3 sits on vertex 0: the pairs with edge 0-3 score 0 and
        # still count, so the mean of (90, 0, 0) is 30.
        g = Graph(4, ((0, 1), (0, 2), (0, 3)))
        layout = L((0, 0), (1, 0), (0, 1), (0, 0))
        assert avg_adjacent_angle(g, layout) == pytest.approx(30.0)

    def test_matches_oracle_random(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(3, 20)
            g = random_connected_graph(n, min(2 * n, n * (n - 1) // 2), rng)
            coords = random_layout_coords(n, rng)
            got = avg_adjacent_angle(g, Layout(coords))
            want = oracles.avg_adjacent_angle(g, coords)
            assert got == pytest.approx(want, rel=1e-9)
        # Dense: queen 8x8 has degrees 21-27.
        g = gen_queen(8, 8)
        coords = random_layout_coords(g.n, rng)
        got = avg_adjacent_angle(g, Layout(coords))
        assert got == pytest.approx(oracles.avg_adjacent_angle(g, coords), rel=1e-9)

    @pytest.mark.parametrize("g", [
        gen_queen(5, 4),
        Graph(6, tuple((0, k) for k in range(1, 6)) + ((2, 3), (4, 5))),
        Graph(5, ((0, 1), (2, 3))),
        Graph(3, ()),
    ], ids=["queen", "star-plus", "matching", "edgeless"])
    def test_triples_in_combinations_order(self, g):
        # The slot pairs, their blocks joined and each slot read as its
        # (owner, neighbour), list the pairs exactly as combinations does:
        # every pair once, in the order of the gathered oracle.
        deg = np.array([len(nb) for nb in g.adjacency], dtype=np.intp)
        owner = np.repeat(np.arange(g.n), deg)
        nbr = np.array([w for nb in g.adjacency for w in nb], dtype=np.intp)
        s, t = np.hstack([np.empty((2, 0), np.intp), *map(np.stack, metrics._adjacent_pairs(deg))])
        got = zip(owner[s].tolist(), owner[t].tolist(), nbr[s].tolist(), nbr[t].tolist())
        want = [(x, x, y, z) for x in range(g.n) for y, z in combinations(g.adjacency[x], 2)]
        assert list(got) == want

    def test_blocks_do_not_show(self, monkeypatch):
        # At the default, 1 and 7 pairs per block the mean is the same:
        # that of every pair's angle, summed exactly and rounded once.  The
        # graphs include a star, one with isolated vertices (7, 8), pendant
        # ones (zero-length slot rows) and a zero-length edge 0-4, and a
        # queen on a 3 x 3 lattice, where many pairs fold to 0 or open to
        # 180 degrees.
        rng = random.Random(12)
        graphs = [random_connected_graph(n, min(3 * n, n * (n - 1) // 2), rng) for n in range(3, 40, 3)]
        graphs += [gen_queen(8, 8), Graph(41, tuple((0, k) for k in range(1, 41)))]
        graphs += [Graph(9, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5), (4, 6)))]
        coords = [random_layout_coords(g.n, rng) for g in graphs]
        coords[-1][4] = coords[-1][0]
        graphs.append(gen_queen(5, 5))
        coords.append(np.array([(rng.randrange(3), rng.randrange(3)) for _ in range(25)], dtype=float))
        want = [oracles.exact_mean(oracles.gathered_adjacent_angles(g, c)) for g, c in zip(graphs, coords)]
        for budget in (metrics.ADJACENT_BLOCK_TRIPLES, 1, 7):
            monkeypatch.setattr(metrics, "ADJACENT_BLOCK_TRIPLES", budget)
            assert [avg_adjacent_angle(g, Layout(c)) for g, c in zip(graphs, coords)] == want

    def test_memory_bounded_on_a_star(self):
        # The star K(1,2000) puts all T = 1 999 000 triples on one vertex:
        # all at once they traced 168 MiB, and their angles alone take
        # 15.25 MiB.  Scored one row block at a time, the pass traces about
        # 1 MiB, whatever T.
        g = Graph(2001, tuple((0, k) for k in range(1, 2001)))
        layout = Layout(np.random.default_rng(0).random((g.n, 2)))
        tracemalloc.start()
        try:
            avg_adjacent_angle(g, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestExactMean:
    """metrics._exact_mean: the count of the values in its blocks and
    their mean, the float nearest to their exact sum over their count."""

    @staticmethod
    def check(*blocks):
        blocks = [np.asarray(b, dtype=float) for b in blocks]
        values = np.concatenate([np.empty(0), *blocks])
        got = metrics._exact_mean(iter(blocks))
        assert got == (len(values), oracles.exact_mean(values))
        return got[1]

    def test_empty(self):
        assert metrics._exact_mean([]) == (0, None)
        assert self.check([], []) is None
        # The metrics keep their values for no crossings and no adjacent
        # pairs.
        g = Graph(4, ((0, 1), (2, 3)))
        layout = L((0, 0), (1, 0), (0, 1), (1, 1))
        assert avg_crossing_angle(g, layout) == 90.0
        assert avg_adjacent_angle(g, layout) is None

    @pytest.mark.parametrize("values, want", [
        ([0.0] * 5, 0.0),
        ([2.0**-1074], 2.0**-1074),
        ([2.0**-1074] * 3, 2.0**-1074),
        # Half the smallest subnormal: a tie, rounded to even.
        ([2.0**-1074, 0.0], 0.0),
        ([2.0**-1074, 2.0**-1074, 2.0**-1074, 0.0], 2.0**-1074),
        ([2.0**-1022, 2.0**-1022], 2.0**-1022),
        ([2.0**-1022, 0.0], 2.0**-1023),
        ([90.0], 90.0),
        ([180.0] * 7, 180.0),
        ([0.0, 90.0, 180.0], 90.0),
        ([180.0, 2.0**-1074], 90.0),
        # A float sum drops both 2^-53 and gives 1/3: the exact sum is
        # 1 + 2^-52, and its third is rounded once.
        ([1.0, 2.0**-53, 2.0**-53], (1.0 + 2.0**-52) / 3),
    ])
    def test_special_values(self, values, want):
        assert self.check(values) == want

    def test_blocks_do_not_show(self):
        # Values over every exponent from the subnormals to 2^7, each with
        # random low bits, in one block or cut at random places.
        rng = np.random.default_rng(5)
        x = np.minimum(np.ldexp(1.0 + rng.random(4000), rng.integers(-1075, 8, 4000)), 180.0)
        x = np.concatenate([x, 2.0 ** np.arange(-1074, 8), rng.random(300) * 180.0])
        rng.shuffle(x)
        whole = self.check(x)
        for _ in range(5):
            cuts = np.sort(rng.integers(0, len(x), 12))
            assert self.check(*np.split(x, cuts)) == whole
        assert self.check(*x[:64].reshape(-1, 1), x[64:]) == whole

    def test_more_than_2_26_values_under_one_exponent(self, monkeypatch):
        # A digit of b bits sums exactly over fewer than 2^(53 - b) values.
        # Give a block of 4096 values in [128, 180), all under one exponent
        # and with random low bits, the 26-bit digits of a block of
        # 2^26 + 4096 values.
        bits = metrics._digit_bits
        for count in (1, 2, 2**26, 2**26 + 1, 2**40):
            assert count * (2 ** bits(count) - 1) < 2**53
        assert bits(2**26 + 4096) == 26
        monkeypatch.setattr(metrics, "_digit_bits", lambda count: bits(count + 2**26))
        x = 128.0 + 52.0 * np.random.default_rng(6).random(4096)
        self.check(x)
        self.check(np.full(4096, np.nextafter(180.0, 0.0)))
        self.check(x, np.full(3, 2.0**-1074))

    def test_nan_makes_the_mean_nan(self):
        count, mean = metrics._exact_mean([np.array([1.0]), np.array([np.nan, 2.0]), np.array([3.0])])
        assert count == 4 and math.isnan(mean)


class TestLengthsAndDistances:
    def test_stdev_two_edges(self):
        # Lengths 0.2 and 0.4: population stdev 0.1.
        g = Graph(4, ((0, 1), (2, 3)))
        layout = L((0, 0), (0.2, 0), (0, 1), (0.4, 1))
        assert edge_length_stdev(g, layout) == pytest.approx(0.1)

    def test_stdev_uniform_lengths_zero(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        layout = L((0, 0), (1, 0), (1, 1), (0, 1))
        assert edge_length_stdev(g, layout) == pytest.approx(0.0, abs=1e-15)

    def test_min_pair_distance_scaled(self):
        layout = L((0, 0), (0.25, 0), (1, 1))
        assert min_pair_distance_scaled(layout) == pytest.approx(0.75)

    def test_matches_oracle_random(self):
        rng = random.Random(10)
        for _ in range(60):
            n = rng.randint(2, 20)
            m = rng.randint(1, n * (n - 1) // 2) if n > 1 else 0
            if m == 0:
                continue
            g = random_graph(n, m, rng)
            coords = random_layout_coords(n, rng)
            layout = Layout(coords)
            assert edge_length_stdev(g, layout) == pytest.approx(
                oracles.edge_length_stdev(g, coords), rel=1e-9
            )
            assert min_pair_distance_scaled(layout) == pytest.approx(
                oracles.min_pair_distance_scaled(coords), rel=1e-9
            )

    @pytest.mark.parametrize("budget", [1, 80, 120])
    def test_nearest_distances_blocks_do_not_show(self, monkeypatch, budget):
        # Blocks of 1, 2 and 3 of the 40 vertices (the last one shorter), and
        # vertices coincident across blocks: the same minima, bit for bit.
        coords = np.vstack([np.random.default_rng(6).random((37, 2)), [[0.5, 0.5]] * 3])
        whole = vertex_distribution(Layout(coords))
        monkeypatch.setattr(layout_mod, "PAIR_BLOCK", budget)
        blocked = vertex_distribution(Layout(coords))
        assert blocked.nearest_vertex_distances == whole.nearest_vertex_distances
        assert blocked.radii == whole.radii

    def test_min_pair_distance_memory_bounded(self):
        # The whole 3000 x 3000 distance matrix and its temporaries trace
        # about 275 MiB; in row blocks of PAIR_BLOCK pairs, about 2 MiB.
        layout = Layout(np.random.default_rng(0).random((3000, 2)))
        tracemalloc.start()
        try:
            min_pair_distance_scaled(layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestVertexDistribution:
    def test_two_vertices_on_border_score_zero(self):
        # Zero-height bounding box: degenerate flag, both radii clipped to 0.
        vd = vertex_distribution(L((0, 0.5), (1, 0.5)))
        assert vd.distribution == pytest.approx(0.0)
        assert vd.degenerate

    def test_unit_square_corners_score_zero(self):
        # Corners sit on the border, so every packing radius collapses to 0.
        vd = vertex_distribution(L((0, 0), (1, 0), (1, 1), (0, 1)))
        assert vd.distribution == pytest.approx(0.0)
        assert not vd.degenerate

    def test_centered_interior_points(self):
        # 3x3 lattice inside the unit square: interior point dominates.
        pts = [(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
        vd = vertex_distribution(L(*pts))
        # Corner/edge points: border distance 0 -> radius 0.
        # Center point: nearest vertex 0.5 away -> radius 0.25.
        assert vd.distribution == pytest.approx(math.pi * 0.25**2)
        assert vd.radii[4] == pytest.approx(0.25)

    def test_all_coincident_raises(self):
        with pytest.raises(ValueError, match="coincide"):
            vertex_distribution(L((0.5, 0.5), (0.5, 0.5), (0.5, 0.5)))

    def test_scale_invariant(self):
        rng = random.Random(11)
        coords = random_layout_coords(12, rng)
        base = vertex_distribution(Layout(coords))
        scaled = vertex_distribution(Layout(coords * 37.0 + 5.0))
        assert scaled.distribution == pytest.approx(base.distribution, rel=1e-9)

    def test_soundness_random(self):
        # Circles are disjoint, inside the box, and cover at most the box.
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(2, 25)
            coords = random_layout_coords(n, rng)
            vd = vertex_distribution(Layout(coords))
            assert 0.0 <= vd.distribution <= 1.0 + 1e-12
            for r, ds, db in zip(
                vd.radii, vd.nearest_vertex_distances, vd.border_distances
            ):
                assert r <= ds / 2 + 1e-12
                assert r <= db + 1e-12

    def test_matches_oracle_random(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 20)
            coords = random_layout_coords(n, rng)
            got = vertex_distribution(Layout(coords))
            want, _, w, h = oracles.vertex_distribution(coords.tolist())
            assert got.distribution == pytest.approx(want, rel=1e-9)
            assert got.area == pytest.approx(w * h, rel=1e-9)


class TestReport:
    def test_full_report_fields(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        layout = L((0, 0), (1, 0), (1, 1), (0, 1))
        r = compute_metrics(g, layout)
        assert isinstance(r, MetricsReport)
        assert r.crossings == 0
        assert r.avg_crossing_angle == 90.0
        assert r.avg_adjacent_angle == pytest.approx(90.0)
        assert r.edge_length_stdev == pytest.approx(0.0, abs=1e-15)
        assert r.min_pair_distance_scaled == pytest.approx(4.0)
        assert r.drawing_area == pytest.approx(1.0)
        assert len(r.per_vertex_radii) == 4

    def test_edgeless_graph(self):
        # No edges: no crossings and no adjacent pairs, and no edge-length
        # spread to report; edge_length_stdev itself still refuses.
        g = Graph(3, ())
        layout = L((0, 0), (1, 0), (0, 1))
        r = compute_metrics(g, layout)
        assert r.crossings == 0 and r.avg_crossing_angle == 90.0
        assert r.avg_adjacent_angle is None and r.edge_length_stdev is None
        assert r.to_json_dict()["edge_length_stdev"] is None
        with pytest.raises(ValueError, match="no edges"):
            edge_length_stdev(g, layout)

    @pytest.mark.parametrize("rows", [9, 7])
    def test_layout_size_must_match(self, rows):
        # One row too many would score a ninth vertex; one too few would
        # fail inside the pass.  Both are refused up front.
        g = gen_wagner()
        layout = Layout(random_layout_coords(rows, random.Random(rows)))
        with pytest.raises(ValueError, match=f"layout has {rows} vertices but the graph has 8"):
            compute_metrics(g, layout)

    def test_similarity_invariance(self):
        # compute_metrics normalizes first, so scale/translation is a no-op.
        rng = random.Random(14)
        g = random_connected_graph(10, 16, rng)
        coords = random_layout_coords(10, rng)
        a = compute_metrics(g, Layout(coords))
        b = compute_metrics(g, Layout(coords * 12.5 + np.array([3.0, -7.0])))
        assert a.crossings == b.crossings
        assert a.avg_crossing_angle == pytest.approx(b.avg_crossing_angle, rel=1e-9)
        assert a.edge_length_stdev == pytest.approx(b.edge_length_stdev, rel=1e-9)
        assert a.vertex_distribution == pytest.approx(b.vertex_distribution, rel=1e-9)

    def test_relabeling_invariance(self):
        rng = random.Random(15)
        g = random_connected_graph(9, 14, rng)
        coords = random_layout_coords(9, rng)
        perm = list(range(9))
        rng.shuffle(perm)
        g2 = Graph(9, tuple((perm[u], perm[v]) for u, v in g.edges))
        coords2 = np.empty_like(coords)
        for old, new in enumerate(perm):
            coords2[new] = coords[old]
        a = compute_metrics(g, Layout(coords))
        b = compute_metrics(g2, Layout(coords2))
        assert a.crossings == b.crossings
        assert a.avg_adjacent_angle == pytest.approx(b.avg_adjacent_angle, rel=1e-9)
        assert a.edge_length_stdev == pytest.approx(b.edge_length_stdev, rel=1e-9)
        assert a.vertex_distribution == pytest.approx(b.vertex_distribution, rel=1e-9)

    def test_json_and_csv_rows(self):
        g = Graph(3, ((0, 1), (1, 2)))
        r = compute_metrics(g, L((0, 0), (1, 0), (2, 1)))
        row = r.scalar_row()
        assert set(row) == {
            "crossings",
            "avg_crossing_angle",
            "avg_adjacent_angle",
            "edge_length_stdev",
            "min_pair_distance_scaled",
            "vertex_distribution",
            "drawing_area",
        }
        j = r.to_json_dict()
        assert j["degenerate_bbox"] is False
        assert len(j["per_vertex_radii"]) == 3
