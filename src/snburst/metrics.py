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
# filter takes about 3 bytes per tested pair, and each pair whose boxes
# meet about 70 while its orientations are tested (about 130 where every
# orientation sign is zero, as on a collinear layout).  A block of 2^16
# pairs peaked (tracemalloc) at 1.1-1.6 MiB on the queen 8x8, 15x5 and
# 12x12 SnB and FR final layouts (27% of the 12x12 boxes meet), 2.4 MiB
# on a random queen 16x16 layout and 8 MiB with all vertices on one line.
# Sweep, in ms per call (median of 11 interleaved calls on 2 shared Xeon
# cores):
#
#   pairs per block        2^15   2^16   2^17   before the box filter (2^15)
#   queen 12x12 SnB          77     65     60    112
#   queen 12x12 FR           71     64     58    108
#   queen 16x16 SnB         399    343    315    538
#   queen 16x16 random      594    542    503    665
#
# 2^17 is a little faster but raised the peak RSS of a fresh process
# scoring the paper's graphs by 1.5 MB.  At 2^16 that peak, and those of
# the queen 12x12 final layouts and of a random queen 16x16 layout, stay
# within 0.2 MB of the pass before the filter.
CROSSING_BLOCK_PAIRS = 1 << 16

# Adjacent-edge pairs (triples v, a, b) per block in avg_adjacent_angle:
# the consecutive slot rows of pairs that fit, at least one row.  A block
# takes about 7 arrays per pair.  Sweep, in ms per call (median of 11
# interleaved calls on 2 shared Xeon cores) and tracemalloc peak in MiB;
# queen 12x12 has 90 K pairs and the star K(1,2000) 2.0 M (15.25 MiB of
# angles):
#
#   pairs per block        2^11        2^13        2^15        2^16
#   queen 12x12 SnB        2.3 / 1.1   1.6 / 1.4   1.5 / 2.9   1.4 / 4.0
#   queen 12x12 FR         2.3 / 1.1   1.6 / 1.4   1.5 / 2.9   1.4 / 4.0
#   star K(1,2000)          47 / 15.6   28 / 16.0   26 / 17.5   24 / 19.0
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

    The pairs and angles are those of the `_crossing_blocks` blocks, joined
    in order.  Only this output grows with the number of crossings, and
    only `find_crossings` holds it: a random layout of queen 16x16
    (m = 6320, 4.56 M crossings, 104 MiB of pairs and angles) peaks near
    0.25 GB, about twice its output, while `compute_metrics` keeps only
    the angles, once as blocks and once joined, and peaks near 0.11 GB.
    """
    pairs, angles = [np.empty((0, 2), dtype=int)], [np.empty(0)]
    for ii, jj, block_angles in _crossing_blocks(g, layout):
        pairs.append(np.column_stack([ii, jj]))
        angles.append(block_angles)
    pairs = np.concatenate(pairs)  # frees the pair blocks before the angles join
    return pairs, np.concatenate(angles)


def _crossing_blocks(g: Graph, layout: Layout):
    """Yield (ii, jj, angles) for each row block of edge pairs: the crossing
    pairs' edge indices ii < jj, in row-major order, and their acute
    angles (degrees).

    Each edge's endpoints, direction b - a, length and CROSSING_EPS-widened
    bounding box are computed once.  The m(m-1)/2 edge pairs are then
    walked in row blocks of edges against all later edges, about
    CROSSING_BLOCK_PAIRS pairs per block.  A block first compares the
    boxes, four comparisons per pair, and keeps the pairs whose boxes meet,
    in row-major order; only those get the exact tests.  The filter drops
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
    bounded per block.
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
        # whose boxes meet, row-major: k indexes them in the block, count
        # per row, and i, j are their edges.
        meet = (lox[a:b, None] <= hix[a:]) & (lox[a:] <= hix[a:b, None])
        meet &= loy[a:b, None] <= hiy[a:]
        meet &= loy[a:] <= hiy[a:b, None]
        meet[:, : b - a] = np.triu(meet[:, : b - a], 1)
        k = np.flatnonzero(meet)
        del meet
        count = np.diff(np.searchsorted(k, np.arange(b - a + 1) * (m - a)))
        i = np.repeat(np.arange(a, b), count)
        j = k - np.repeat(np.arange(b - a) * (m - a) - a, count)
        del k
        dxi, dyi = np.repeat(dx[a:b], count), np.repeat(dy[a:b], count)
        dxj, dyj = dx.take(j), dy.take(j)
        # Orientation of point p against edge (a, b), in the operand order
        # (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x).  That of
        # a_j against edge i is the negation of the value computed here from
        # a_i - a_j (exactly so in floating point), hence its swapped signs.
        # Each orientation's endpoint differences are gathered just before
        # it is taken, so a block holds only a few arrays per kept pair.
        ddx = np.repeat(ax[a:b], count) - ax.take(j)
        ddy = np.repeat(ay[a:b], count) - ay.take(j)
        p1, n1 = _signs(dxj * ddy - dyj * ddx)  # a_i against edge j
        n3, p3 = _signs(dxi * ddy - dyi * ddx)  # a_j against edge i
        ddx = np.repeat(bx[a:b], count) - ax.take(j)
        ddy = np.repeat(by[a:b], count) - ay.take(j)
        p2, n2 = _signs(dxj * ddy - dyj * ddx)  # b_i against edge j
        ddx = bx.take(j) - np.repeat(ax[a:b], count)
        ddy = by.take(j) - np.repeat(ay[a:b], count)
        p4, n4 = _signs(dxi * ddy - dyi * ddx)  # b_j against edge i
        del ddx, ddy
        crossing = ((p1 & n2) | (n1 & p2)) & ((p3 & n4) | (n3 & p4))
        s1, s2, s3, s4 = p1 | n1, p2 | n2, p3 | n3, p4 | n4
        # A zero sign: a touch, a collinear pair or a shared vertex.
        z = np.flatnonzero(~(s1 & s2 & s3 & s4))
        zi, zj = i.take(z), j.take(z)
        ui, vi, uj, vj = u[zi], v[zi], u[zj], v[zj]
        apart = (ui != uj) & (ui != vj) & (vi != uj) & (vi != vj)
        z, zi, zj = z[apart], zi[apart], zj[apart]
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
        # Free the block's per-pair arrays before its output is built, so
        # the output can take their place in the heap instead of piling up
        # above them (1.3 MB less peak RSS on a random queen 16x16 layout).
        del i, j, dxi, dyi, dxj, dyj, p1, n1, p2, n2, p3, n3, p4, n4, s1, s2, s3, s4, crossing, hit
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
    `_crossing_blocks`.  It keeps only the angle blocks, the largest arrays
    of a report, and joins them into one array, so the mean is numpy's
    pairwise sum over the same contiguous angles as `find_crossings`
    returns, bit for bit.  (Summing block by block would move it by an
    ulp.)  Both are freed on return."""
    angles = [block for _, _, block in _crossing_blocks(g, layout)]
    angles = np.concatenate([np.empty(0), *angles])
    return len(angles), float(angles.mean()) if len(angles) else 90.0


# ---------------------------------------------------------------------------
# Angles between adjacent edges


def avg_adjacent_angle(g: Graph, layout: Layout) -> float | None:
    """Mean angle (degrees, in [0, 180]) at the shared vertex over all
    unordered pairs of adjacent edges; None if no two edges share a vertex.

    Slot k, the k-th entry of the joined adjacency lists, is an edge end:
    its vector, neighbour minus owner, and length are computed once.  The
    angles of the slot pairs fill one array of length T in the blocks of
    `_adjacent_pairs`; its mean is that of the whole array, so the blocks
    do not show.  Beyond that array, working memory is one block: on the
    star K(1,2000) (T = 2.0 M, 15.25 MiB of angles) the pass traces
    16.0 MiB, where all pairs at once take 109 MiB."""
    deg = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=g.n)
    total = int((deg * (deg - 1) // 2).sum())
    if total == 0:
        return None
    nbr = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=2 * g.m)
    c = layout.coords
    wx, wy = (c[nbr] - c[np.repeat(np.arange(g.n), deg)]).T
    h = np.hypot(wx, wy)
    angles = np.empty(total)
    k = 0
    for s, t in _adjacent_pairs(deg):
        norms = h[s] * h[t]
        # A zero-length edge in the drawing leaves the angle undefined:
        # score it 0 (fully folded), and still count the pair.
        angles[k : k + len(s)] = np.where(
            norms == 0.0, 0.0, _angles(wx[s] * wx[t] + wy[s] * wy[t], norms)
        )
        k += len(s)
    return float(angles.mean())


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
