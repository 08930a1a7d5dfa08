"""Layout aesthetics metrics: crossings, angles, edge lengths, vertex distribution.

All metrics are pure functions of (graph, layout).  Only the
vertex-distribution packing ratio normalizes (through `normalize_layout`),
so it accepts raw layouts; `compute_metrics` normalizes once and scores
every metric on that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import layout as layout_mod
from .graphs import Graph
from .layout import Layout, normalize_layout

# Tolerance for "touching" cases in the crossing predicate: an endpoint
# lying (within eps) on another segment counts as a crossing.
CROSSING_EPS = 1e-12

# Edge pairs tested per block in find_crossings: a block is
# max(1, CROSSING_BLOCK_PAIRS // m) edges against all later edges.  The box
# filter takes about 3 bytes per pair of the block and 8 per pair whose
# boxes meet, whose tests then run in chunks of CROSSING_CHUNK_PAIRS.  A
# `_crossing_summary` call peaked (tracemalloc) at 1.4-1.5 MiB on the queen
# 12x12 SnB and FR final layouts (27% of the boxes meet), 2.0 MiB on a
# random queen 16x16 layout (45%) and 2.4 MiB with all vertices of queen
# 12x12 on one line.  Sweep, in ms per call (median of 11 interleaved
# calls, 5 on queen 16x16, on 2 shared Xeon cores) / tracemalloc peak in
# MiB, at 2^13 kept pairs per chunk:
#
#   pairs per block         2^15         2^16         2^17
#   queen 12x12 SnB          87 / 1.4     74 / 1.5     71 / 1.6
#   queen 12x12 FR           78 / 1.3     73 / 1.4     71 / 1.6
#   queen 16x16 SnB         402 / 1.8    343 / 1.9    316 / 2.0
#   queen 16x16 random      580 / 1.9    517 / 2.0    506 / 2.4
#   queen 12x12 on a line   302 / 2.2    286 / 2.4    283 / 3.1
#
# Before the kept pairs were chunked, 2^17 raised the peak RSS of a fresh
# process scoring the paper's graphs by 1.5 MB; a fresh process scoring
# the queen 12x12 SnB and FR final layouts now peaks at 32.0, 32.2 and
# 32.4 MB at 2^15, 2^16 and 2^17.
CROSSING_BLOCK_PAIRS = 1 << 16

# Kept pairs (those whose boxes meet) a block tests at once.  The
# orientation, touch and angle tests take about 70 bytes per pair (about
# 130 where every orientation sign is zero, as on a collinear layout), so a
# chunk's working memory no longer grows with the share of boxes that meet,
# and its 64 KiB float arrays stay below glibc's 128 KiB mmap threshold,
# so a repeated call takes them from the heap instead of faulting in new
# pages: a repeated `_crossing_summary` on a random queen 12x12 layout made
# 799 minor faults, where testing a whole block at once made 13 866.
# Sweep, in ms per call (median of 11 interleaved calls, 5 on queen 16x16,
# on 2 shared Xeon cores) / tracemalloc peak in MiB, at 2^16 pairs per block:
#
#   kept pairs per chunk    2^12         2^13         2^14         one per block
#   queen 12x12 SnB          80 / 1.1     72 / 1.5     70 / 2.5     70 / 2.5
#   queen 12x12 FR           75 / 1.0     70 / 1.4     71 / 2.4     68 / 2.9
#   queen 12x12 random      113 / 1.1     97 / 1.6     99 / 2.5    102 / 4.3
#   queen 16x16 SnB         384 / 1.4    329 / 1.9    367 / 2.9    377 / 4.2
#   queen 16x16 random      609 / 1.6    539 / 2.0    566 / 3.0    529 / 5.0
#   queen 12x12 on a line   313 / 1.7    309 / 2.4    300 / 4.2    290 / 10.6
#
# 2^12 pays a numpy call's fixed cost too often.  At 2^14 the arrays reach
# the mmap threshold: a fresh process scoring the queen 12x12 SnB and FR
# final layouts peaked 1.0 MB higher in RSS than at 2^13, and 0.3 MB
# higher than testing whole blocks.
CROSSING_CHUNK_PAIRS = 1 << 13

# Adjacent-edge pairs (triples v, a, b) per block in avg_adjacent_angle:
# the consecutive slot rows of pairs that fit, at least one row.  A block
# takes about 7 arrays per pair.  Sweep, in ms per call (median of 11
# interleaved calls on 2 shared Xeon cores) and tracemalloc peak in MiB;
# queen 12x12 has 90 K pairs and the star K(1,2000) 2.0 M:
#
#   pairs per block        2^11        2^13        2^15        2^16
#   queen 12x12 SnB        4.6 / 0.4   2.9 / 0.9   4.1 / 2.8   5.0 / 3.7
#   queen 12x12 FR         4.8 / 0.4   3.0 / 0.9   4.0 / 2.8   5.2 / 3.7
#   star K(1,2000)          82 / 0.4    52 / 0.9    46 / 2.8    79 / 4.8
#
# The whole pass at once took 1.4-2.5 ms / 5.2 MiB and 37 ms / 109 MiB.
ADJACENT_BLOCK_TRIPLES = 1 << 13

# Clamp for a zero-area (collinear) bounding box in vertex_distribution.
MIN_BOX_SIDE = 1e-9

CSV_FIELDS = [
    "crossings",
    "avg_crossing_angle",
    "avg_adjacent_angle",
    "edge_length_stdev",
    "min_pair_distance_scaled",
    "vertex_distribution",
    "drawing_area",
]


@dataclass
class MetricsReport:
    """One layout's aesthetic scorecard.

    `avg_adjacent_angle` is None for graphs without any pair of edges
    sharing a vertex (perfect matchings), `edge_length_stdev` None for
    graphs without edges.  `per_vertex_radii[i]` is r_i =
    min(d*_i / 2, d**_i) with its companions in the two distance tuples;
    vertex_distribution is pi * sum(r_i^2) / drawing_area.
    """

    crossings: int
    avg_crossing_angle: float
    avg_adjacent_angle: float | None
    edge_length_stdev: float | None
    min_pair_distance_scaled: float
    vertex_distribution: float
    drawing_area: float
    per_vertex_radii: tuple[float, ...]
    nearest_vertex_distances: tuple[float, ...]
    border_distances: tuple[float, ...]
    degenerate_bbox: bool = False

    def scalar_row(self) -> dict:
        """Flat CSV/JSON row of the scalar fields, in CSV_FIELDS order."""
        return {name: getattr(self, name) for name in CSV_FIELDS}

    def to_json_dict(self) -> dict:
        d = self.scalar_row()
        d["degenerate_bbox"] = self.degenerate_bbox
        d["per_vertex_radii"] = list(self.per_vertex_radii)
        d["nearest_vertex_distances"] = list(self.nearest_vertex_distances)
        d["border_distances"] = list(self.border_distances)
        return d


# ---------------------------------------------------------------------------
# Edge crossings


def find_crossings(g: Graph, layout: Layout):
    """All crossing edge pairs with their acute crossing angles (degrees).

    Returns (pairs, angles): pairs is an (k, 2) int array of edge indices
    (i < j, in row-major order), angles a length-k float array.  Edge pairs
    sharing a vertex are never counted.  Proper intersections,
    endpoint-on-segment touches and collinear overlaps all count.

    The pairs and angles are those of the `_crossing_blocks` chunks,
    joined in order.  Only this output grows with the number of crossings,
    and only `find_crossings` holds it: a random layout of queen 16x16
    (m = 6320, 4.56 M crossings, 104 MiB of pairs and angles) peaks near
    0.25 GB, about twice its output, while `compute_metrics` scores each
    chunk as it comes and holds one chunk at a time.
    """
    pairs, angles = [np.empty((0, 2), dtype=int)], [np.empty(0)]
    for ii, jj, block_angles in _crossing_blocks(g, layout):
        pairs.append(np.column_stack([ii, jj]))
        angles.append(block_angles)
    pairs = np.concatenate(pairs)  # frees the pair blocks before the angles join
    return pairs, np.concatenate(angles)


def _crossing_blocks(g: Graph, layout: Layout):
    """Yield (ii, jj, angles) for each chunk of edge pairs: the crossing
    pairs' edge indices ii < jj, in row-major order, and their acute
    angles (degrees).

    Each edge's endpoints, direction b - a, length and CROSSING_EPS-widened
    bounding box are computed once.  The m(m-1)/2 edge pairs are then
    walked in row blocks of edges against all later edges, about
    CROSSING_BLOCK_PAIRS pairs per block.  A block first compares the
    boxes, four comparisons per pair, and keeps the pairs whose boxes meet,
    in row-major order; only those get the exact tests, CROSSING_CHUNK_PAIRS
    kept pairs at a time, and each chunk's crossings are yielded as they
    are found.  The filter drops
    no crossing: a touch needs an endpoint inside the other edge's widened
    box, and a proper crossing needs opposite orientations beyond
    CROSSING_EPS on both edges, which, while rounding error stays below
    eps (as on a normalized layout), means a true intersection inside both
    boxes.  On a kept pair, the four orientation values, one per endpoint
    against the other edge's line, give their signs: opposite signs on
    both edges make a proper crossing.  The bounding-box tests for touches
    and collinear overlaps run only on the pairs with a zero sign that
    share no vertex (a shared endpoint's orientation is exactly 0, so every
    pair sharing a vertex is among the zero-sign pairs).  Working memory is
    a block's box comparisons and kept-pair indices, 3 bytes per pair of
    the block and 8 per kept pair, and one chunk's tests: on a random
    queen 16x16 layout, where 45% of the boxes meet, `compute_metrics`
    traces 2.0 MiB, where testing each block's kept pairs at once traced
    4.3 MiB.
    """
    m = g.m
    e = np.asarray(g.edges, dtype=np.intp).reshape(m, 2)
    u, v = e.T
    c = layout.coords
    ax, ay = c[u, 0], c[u, 1]
    bx, by = c[v, 0], c[v, 1]
    dx, dy = bx - ax, by - ay
    length = np.sqrt(dx * dx + dy * dy)
    lox, hix = np.minimum(ax, bx) - CROSSING_EPS, np.maximum(ax, bx) + CROSSING_EPS
    loy, hiy = np.minimum(ay, by) - CROSSING_EPS, np.maximum(ay, by) + CROSSING_EPS

    def in_bbox(x, y, k):
        """Points (x, y) within the eps-widened bounding boxes of edges k."""
        return (x >= lox[k]) & (x <= hix[k]) & (y >= loy[k]) & (y <= hiy[k])

    rows = max(1, CROSSING_BLOCK_PAIRS // max(m, 1))
    for a in range(0, m - 1, rows):
        b = min(a + rows, m - 1)
        # Block edges i in rows, edges j >= a in columns.  The pairs j > i
        # whose boxes meet, row-major: `kept` indexes them in the block.
        meet = (lox[a:b, None] <= hix[a:]) & (lox[a:] <= hix[a:b, None])
        meet &= loy[a:b, None] <= hiy[a:]
        meet &= loy[a:] <= hiy[a:b, None]
        meet[:, : b - a] = np.triu(meet[:, : b - a], 1)
        kept = np.flatnonzero(meet)
        del meet
        for c in range(0, len(kept), CROSSING_CHUNK_PAIRS):
            # A chunk of kept pairs, and i, j their edges: a plus the row and
            # the column in the block (a floor division and a product take
            # half the time of np.divmod, which made the pass 2-4% slower).
            k = kept[c:c + CROSSING_CHUNK_PAIRS]
            i = k // (m - a)
            j = k - i * (m - a)
            i += a
            j += a
            dxi, dyi = dx.take(i), dy.take(i)
            dxj, dyj = dx.take(j), dy.take(j)
            # Orientation of point p against edge (a, b), in the operand order
            # (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x).  That of
            # a_j against edge i is the negation of the value computed here
            # from a_i - a_j (exactly so in floating point), hence its swapped
            # signs.
            ddx = ax.take(i) - ax.take(j)
            ddy = ay.take(i) - ay.take(j)
            p1, n1 = _signs(dxj * ddy - dyj * ddx)  # a_i against edge j
            n3, p3 = _signs(dxi * ddy - dyi * ddx)  # a_j against edge i
            ddx = bx.take(i) - ax.take(j)
            ddy = by.take(i) - ay.take(j)
            p2, n2 = _signs(dxj * ddy - dyj * ddx)  # b_i against edge j
            ddx = bx.take(j) - ax.take(i)
            ddy = by.take(j) - ay.take(i)
            p4, n4 = _signs(dxi * ddy - dyi * ddx)  # b_j against edge i
            crossing = ((p1 & n2) | (n1 & p2)) & ((p3 & n4) | (n3 & p4))
            s1, s2, s3, s4 = p1 | n1, p2 | n2, p3 | n3, p4 | n4
            # A zero sign: a touch, a collinear pair or a shared vertex.
            z = np.flatnonzero(~(s1 & s2 & s3 & s4))
            zi, zj = i.take(z), j.take(z)
            ui, vi, uj, vj = u[zi], v[zi], u[zj], v[zj]
            apart = (ui != uj) & (ui != vj) & (vi != uj) & (vi != vj)
            z, zi, zj = z[apart], zi[apart], zj[apart]
            if len(z):  # rare off a lattice: skip the tests' fixed cost
                touching = (
                    (~s1.take(z) & in_bbox(ax[zi], ay[zi], zj))
                    | (~s2.take(z) & in_bbox(bx[zi], by[zi], zj))
                    | (~s3.take(z) & in_bbox(ax[zj], ay[zj], zi))
                    | (~s4.take(z) & in_bbox(bx[zj], by[zj], zi))
                )
                np.put(crossing, z[touching], True)
            hit = np.flatnonzero(crossing)
            ii, jj = i.take(hit), j.take(hit)
            dot = np.abs(dxi.take(hit) * dxj.take(hit) + dyi.take(hit) * dyj.take(hit))
            yield ii, jj, _angles(dot, length[ii] * length[jj])


def _signs(v: np.ndarray):
    """Masks of the values above CROSSING_EPS and below -CROSSING_EPS."""
    return v > CROSSING_EPS, v < -CROSSING_EPS


def _angles(dot: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Angles (degrees) from dot products and length products, a zero
    product read as 1.  This is the package's one arccos."""
    return np.degrees(np.arccos(np.clip(dot / np.where(norms == 0.0, 1.0, norms), -1.0, 1.0)))


def count_crossings(g: Graph, layout: Layout) -> int:
    """Number of unordered edge pairs that cross (concurrent crossings count pairwise)."""
    return _crossing_summary(g, layout)[0]


def avg_crossing_angle(g: Graph, layout: Layout) -> float:
    """Mean acute crossing angle in degrees; 90 for planar (crossing-free) layouts."""
    return _crossing_summary(g, layout)[1]


def _crossing_summary(g: Graph, layout: Layout) -> tuple[int, float]:
    """The crossing count and mean angle (90 if planar) of one pass over
    `_crossing_blocks`.  Each chunk's angles go to `_exact_mean` as they
    come, so no more than a chunk of angles is held at a time."""
    count, mean = _exact_mean(angles for _, _, angles in _crossing_blocks(g, layout))
    return count, 90.0 if mean is None else mean


def _exact_mean(blocks) -> tuple[int, float | None]:
    """The number of values in `blocks`, 1-D float64 arrays of values in
    [0, 180], and their mean: the float nearest to their exact sum over
    that number (None if there are none; NaN if a value is NaN).

    The mean does not depend on how the values are split into blocks, nor
    on numpy's summation order.  Each block is cut into digits of
    `_digit_bits` bits, from its largest value down: a digit is the floor
    of the values scaled by a power of two, the scaled remainders go on to
    the next digit, and every scaling and subtraction is exact.  A digit's
    sum is an exact float64, and it joins the running total, an integer
    in units of 2^-1074, the smallest subnormal, so that total is the
    exact sum.  A block takes at most one digit per `_digit_bits` bits
    from its largest value's top bit to the lowest set bit of any of its
    values: two digits for each block of crossing or adjacent angles on
    the SnB, FR and random queen 12x12 layouts and the SnB queen 16x16
    layout measured.  That is about 6 ns per value (13 ms for 2.16 M
    crossing angles, where numpy's mean takes 1.2 ms) on 2 shared Xeon
    cores."""
    count, total, nan = 0, 0, False
    for x in blocks:
        count += len(x)
        bits = _digit_bits(len(x))
        s, q = x, 0  # remainders in units of 2^q
        while (peak := float(s.max(initial=0.0))) > 0.0:
            # The next digit's unit: the remainders scaled below 2^bits,
            # never below the smallest subnormal, by a factor a float holds.
            k = min(bits - math.frexp(peak)[1], q + 1074, 1023)
            s = np.multiply(s, 2.0**k, out=None if s is x else s)
            q -= k
            digit = np.floor(s)
            total += int(digit.sum()) << (q + 1074)
            s -= digit
        nan |= peak != peak
    if count == 0:
        return 0, None
    return count, math.nan if nan else total / (count << 1074)


def _digit_bits(count: int) -> int:
    """Bits per digit in `_exact_mean` for a block of `count` values:
    `count` digits below 2^bits sum below 2^53, so float64 adds them
    exactly in any order."""
    return 53 - count.bit_length()


# ---------------------------------------------------------------------------
# Angles between adjacent edges


def avg_adjacent_angle(g: Graph, layout: Layout) -> float | None:
    """Mean angle (degrees, in [0, 180]) at the shared vertex over all
    unordered pairs of adjacent edges; None if no two edges share a vertex.

    Slot k, the k-th entry of the joined adjacency lists, is an edge end:
    its vector, neighbour minus owner, and length are computed once.  The
    angles of the slot pairs are taken in the blocks of `_adjacent_pairs`
    and added to `_exact_mean` one block at a time, so working memory is
    one block: on the star K(1,2000) (T = 2.0 M pairs, whose angles alone
    would take 15.25 MiB) the pass traces 0.85 MiB, where all pairs at
    once take 109 MiB."""
    deg = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=g.n)
    nbr = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=2 * g.m)
    c = layout.coords
    wx, wy = (c[nbr] - c[np.repeat(np.arange(g.n), deg)]).T
    h = np.hypot(wx, wy)

    def angles(s, t):
        norms = h[s] * h[t]
        # A zero-length edge in the drawing leaves the angle undefined:
        # score it 0 (fully folded), and still count the pair.
        return np.where(norms == 0.0, 0.0, _angles(wx[s] * wx[t] + wy[s] * wy[t], norms))

    return _exact_mean(angles(s, t) for s, t in _adjacent_pairs(deg))[1]


def _adjacent_pairs(deg: np.ndarray):
    """Yield blocks of slot arrays (s, t), for vertex degrees `deg`: for
    each vertex in order, every pair of its slots s < t, as
    itertools.combinations lists them.

    The pairs sharing slot s form its row, of length end(v) - 1 - s for
    its owner v.  A block is the consecutive rows whose pairs fit in
    ADJACENT_BLOCK_TRIPLES, or one row if its pairs alone do not, so no
    block holds more than max(ADJACENT_BLOCK_TRIPLES, max degree - 1)
    pairs, even when one vertex holds them all, as on a star."""
    end = np.cumsum(deg)
    row_len = np.repeat(end, deg) - 1 - np.arange(deg.sum())
    row_end = np.cumsum(row_len)
    r = 0
    while r < len(row_len):
        limit = row_end[r] - row_len[r] + ADJACENT_BLOCK_TRIPLES
        stop = max(r + 1, int(np.searchsorted(row_end, limit, side="right")))
        s = np.repeat(np.arange(r, stop), row_len[r:stop])
        yield s, s + 1 + _segment_arange(row_len[r:stop])
        r = stop


def _segment_arange(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., lengths[k] - 1 for each k in turn, concatenated."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


# ---------------------------------------------------------------------------
# Edge lengths and pair distances


def edge_length_stdev(g: Graph, layout: Layout) -> float:
    """Population standard deviation of Euclidean edge lengths."""
    if g.m < 1:
        raise ValueError("graph has no edges")
    e = np.asarray(g.edges)
    d = layout.coords[e[:, 1]] - layout.coords[e[:, 0]]
    lengths = np.sqrt((d * d).sum(axis=1))
    return float(lengths.std())


def _nearest_vertex_distances(coords: np.ndarray) -> np.ndarray:
    """Distance from each vertex to its nearest other vertex, from the
    n x n distance matrix taken in row blocks of max(1, PAIR_BLOCK // n)
    vertices (one block while n * n <= PAIR_BLOCK).  A minimum is exact
    under any blocking, and the working memory stays a few blocks: at
    n = 3000 it traces 1.9 MiB, where the whole matrix took 275 MiB."""
    n = len(coords)
    x, y = coords[:, 0], coords[:, 1]
    rows = max(1, layout_mod.PAIR_BLOCK // n)
    nearest = np.empty(n)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        dx = x[None, :] - x[a:b, None]
        dy = y[None, :] - y[a:b, None]
        d = np.sqrt(dx * dx + dy * dy)
        np.fill_diagonal(d[:, a:], np.inf)
        nearest[a:b] = d.min(axis=1)
    return nearest


def min_pair_distance_scaled(layout: Layout) -> float:
    """Minimum pairwise vertex distance multiplied by the vertex count."""
    n = len(layout)
    if n < 2:
        raise ValueError("need at least two vertices")
    return n * float(_nearest_vertex_distances(layout.coords).min())


# ---------------------------------------------------------------------------
# Vertex distribution (packing ratio)


@dataclass
class VertexDistribution:
    """Packing-ratio result: D plus the per-vertex geometry behind it."""

    distribution: float
    radii: tuple[float, ...]
    nearest_vertex_distances: tuple[float, ...]
    border_distances: tuple[float, ...]
    area: float
    degenerate: bool


def vertex_distribution(layout: Layout) -> VertexDistribution:
    """Packing ratio D = pi * sum(r_i^2) / A on the tight bounding rectangle.

    The layout is first normalized with `normalize_layout` (larger
    bounding-box side of unit length), making D independent of the caller's
    normalization.  r_i is min(half the distance to the nearest other
    vertex, distance to the nearest rectangle side); A the rectangle area.
    A zero-height box is clamped to 1e-9 and flagged.  All-coincident
    vertices raise DegenerateLayoutError.
    """
    if len(layout) < 2:
        raise ValueError("need at least two vertices")
    c = normalize_layout(layout).coords
    extent = c.max(axis=0)
    box = np.maximum(extent, MIN_BOX_SIDE)
    d_star = _nearest_vertex_distances(c)
    d_border = np.minimum(c, box - c).min(axis=1)
    radii = np.minimum(d_star / 2.0, d_border)
    area = float(box[0] * box[1])
    dist = float(math.pi * (radii**2).sum() / area)
    return VertexDistribution(
        distribution=dist,
        radii=tuple(float(r) for r in radii),
        nearest_vertex_distances=tuple(float(x) for x in d_star),
        border_distances=tuple(float(x) for x in d_border),
        area=area,
        degenerate=bool((extent < MIN_BOX_SIDE).any()),
    )


# ---------------------------------------------------------------------------
# Full report


def compute_metrics(g: Graph, layout: Layout) -> MetricsReport:
    """Full aesthetic scorecard on the normalized layout, which must have
    one row per vertex of g (ValueError otherwise)."""
    if len(layout) != g.n:
        raise ValueError(f"layout has {len(layout)} vertices but the graph has {g.n}")
    norm = normalize_layout(layout)
    crossings, crossing_angle = _crossing_summary(g, norm)
    vd = vertex_distribution(norm)
    return MetricsReport(
        crossings=crossings,
        avg_crossing_angle=crossing_angle,
        avg_adjacent_angle=avg_adjacent_angle(g, norm),
        edge_length_stdev=edge_length_stdev(g, norm) if g.m else None,
        min_pair_distance_scaled=g.n * min(vd.nearest_vertex_distances),
        vertex_distribution=vd.distribution,
        drawing_area=vd.area,
        per_vertex_radii=vd.radii,
        nearest_vertex_distances=vd.nearest_vertex_distances,
        border_distances=vd.border_distances,
        degenerate_bbox=vd.degenerate,
    )
