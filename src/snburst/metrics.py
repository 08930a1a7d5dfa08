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

from .graphs import Graph
from .layout import Layout, normalize_layout

# Tolerance for "touching" cases in the crossing predicate: an endpoint
# lying (within eps) on another segment counts as a crossing.
CROSSING_EPS = 1e-12

# Edge pairs tested per block in find_crossings: a block is
# max(1, CROSSING_BLOCK_PAIRS // m) edges against all later edges.  Each
# tested pair holds about 60 bytes of temporaries (about 120 where every
# orientation sign is zero, as on a collinear layout), so a block stays
# under 4 MB; blocks of 2^17 pairs ran no faster and raised the peak RSS
# of a pipeline run on a 400-edge graph by 7 MB.
CROSSING_BLOCK_PAIRS = 1 << 15

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

    Each edge's endpoints, direction b - a and length are computed once.
    The m(m-1)/2 edge pairs are then tested in row blocks of edges against
    all later edges, about CROSSING_BLOCK_PAIRS pairs per block: a block
    broadcasts the four orientation values, one per endpoint against the
    other edge's line, and keeps only their signs.  Opposite signs on both
    edges make a proper crossing.  The CROSSING_EPS bounding-box tests for
    touches and collinear overlaps run only on the pairs with a zero sign,
    which include every pair sharing a vertex (the shared endpoint's
    orientation is exactly 0), so the vertex test runs there too.  Working
    memory is bounded per block and only the output grows with the number
    of crossings: a random layout of queen 16x16 (m = 6320, 4.56 M
    crossings) peaks near 0.25 GB, most of it the output.
    """
    m = g.m
    e = np.asarray(g.edges, dtype=np.intp).reshape(m, 2)
    c = layout.coords
    ax, ay = c[e[:, 0], 0], c[e[:, 0], 1]
    bx, by = c[e[:, 1], 0], c[e[:, 1], 1]
    dx, dy = bx - ax, by - ay
    length = np.sqrt(dx * dx + dy * dy)
    lox, hix = np.minimum(ax, bx) - CROSSING_EPS, np.maximum(ax, bx) + CROSSING_EPS
    loy, hiy = np.minimum(ay, by) - CROSSING_EPS, np.maximum(ay, by) + CROSSING_EPS

    def in_bbox(x, y, k):
        """Points (x, y) within the eps-widened bounding boxes of edges k."""
        return (x >= lox[k]) & (x <= hix[k]) & (y >= loy[k]) & (y <= hiy[k])

    rows = max(1, CROSSING_BLOCK_PAIRS // max(m, 1))
    pairs, angles = [np.empty((0, 2), dtype=int)], [np.empty(0)]
    for a in range(0, m - 1, rows):
        b = min(a + rows, m - 1)
        # Block edges i in rows, edges j >= a in columns.
        axi, ayi, bxi, byi, dxi, dyi = (v[a:b, None] for v in (ax, ay, bx, by, dx, dy))
        axj, ayj, bxj, byj, dxj, dyj = (v[a:] for v in (ax, ay, bx, by, dx, dy))
        # Orientation of point p against edge (a, b), in the operand order
        # (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x).  That of
        # a_j against edge i is the negation of the value computed here from
        # a_i - a_j (exactly so in floating point), hence its swapped signs.
        ddx, ddy = axi - axj, ayi - ayj
        p1, n1 = _signs(dxj * ddy - dyj * ddx)  # a_i against edge j
        n3, p3 = _signs(dxi * ddy - dyi * ddx)  # a_j against edge i
        del ddx, ddy
        p2, n2 = _signs(dxj * (byi - ayj) - dyj * (bxi - axj))  # b_i against edge j
        p4, n4 = _signs(dxi * (byj - ayi) - dyi * (bxj - axi))  # b_j against edge i
        later = np.arange(m - a) > np.arange(b - a)[:, None]
        crossing = ((p1 & n2) | (n1 & p2)) & ((p3 & n4) | (n3 & p4)) & later
        s1, s2, s3, s4 = p1 | n1, p2 | n2, p3 | n3, p4 | n4
        # A zero sign: a touch, a collinear pair or a shared vertex.
        k = np.flatnonzero(later & ~(s1 & s2 & s3 & s4))
        ki, kj = np.divmod(k, m - a)
        ki += a
        kj += a
        ui, vi, uj, vj = e[ki, 0], e[ki, 1], e[kj, 0], e[kj, 1]
        touching = ((ui != uj) & (ui != vj) & (vi != uj) & (vi != vj)) & (
            (~s1.take(k) & in_bbox(ax[ki], ay[ki], kj))
            | (~s2.take(k) & in_bbox(bx[ki], by[ki], kj))
            | (~s3.take(k) & in_bbox(ax[kj], ay[kj], ki))
            | (~s4.take(k) & in_bbox(bx[kj], by[kj], ki))
        )
        np.put(crossing, k[touching], True)
        ii, jj = np.nonzero(crossing)
        ii += a
        jj += a
        dot = np.abs(dx[ii] * dx[jj] + dy[ii] * dy[jj])
        norms = length[ii] * length[jj]
        denom = np.where(norms == 0.0, 1.0, norms)
        angles.append(np.degrees(np.arccos(np.clip(dot / denom, -1.0, 1.0))))
        pairs.append(np.column_stack([ii, jj]))
    pairs = np.concatenate(pairs)  # frees the pair blocks before the angles join
    return pairs, np.concatenate(angles)


def _signs(v: np.ndarray):
    """Masks of the values above CROSSING_EPS and below -CROSSING_EPS."""
    return v > CROSSING_EPS, v < -CROSSING_EPS


def count_crossings(g: Graph, layout: Layout) -> int:
    """Number of unordered edge pairs that cross (concurrent crossings count pairwise)."""
    pairs, _ = find_crossings(g, layout)
    return len(pairs)


def avg_crossing_angle(g: Graph, layout: Layout) -> float:
    """Mean acute crossing angle in degrees; 90 for planar (crossing-free) layouts."""
    _, angles = find_crossings(g, layout)
    if len(angles) == 0:
        return 90.0
    return float(angles.mean())


# ---------------------------------------------------------------------------
# Angles between adjacent edges


def avg_adjacent_angle(g: Graph, layout: Layout) -> float | None:
    """Mean angle (degrees, in [0, 180]) at the shared vertex over all
    unordered pairs of adjacent edges; None if no two edges share a vertex."""
    v, a, b = _adjacent_triples(g)
    if len(v) == 0:
        return None
    c = layout.coords
    u1 = c[a] - c[v]
    u2 = c[b] - c[v]
    norms = np.hypot(u1[:, 0], u1[:, 1]) * np.hypot(u2[:, 0], u2[:, 1])
    # A zero-length edge in the drawing leaves the angle undefined: score
    # it 0 (fully folded), and still count the pair.
    folded = norms == 0.0
    cosang = (u1[:, 0] * u2[:, 0] + u1[:, 1] * u2[:, 1]) / np.where(folded, 1.0, norms)
    angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.where(folded, 0.0, angles).mean())


def _adjacent_triples(g: Graph):
    """Arrays (v, a, b): for each vertex v in order, every pair of its
    neighbours a before b in adjacency order, as itertools.combinations
    lists them."""
    deg = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=g.n)
    nbr = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=2 * g.m)
    first = np.cumsum(deg) - deg
    # One row per (v, p): neighbour p of v, against the q > p after it.
    row_count = np.maximum(deg - 1, 0)
    row_v = np.repeat(np.arange(g.n), row_count)
    row_p = _segment_arange(row_count)
    row_len = deg[row_v] - 1 - row_p
    v = np.repeat(row_v, row_len)
    p = np.repeat(row_p, row_len)
    q = p + 1 + _segment_arange(row_len)
    return v, nbr[first[v] + p], nbr[first[v] + q]


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
    """Distance from each vertex to its nearest other vertex, from the one
    n x n distance matrix the metrics build."""
    x, y = coords[:, 0], coords[:, 1]
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    d = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


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
    """Full aesthetic scorecard on the normalized layout."""
    norm = normalize_layout(layout)
    pairs, angles = find_crossings(g, norm)
    crossings = len(pairs)
    crossing_angle = float(angles.mean()) if len(angles) else 90.0
    # The crossing arrays are the largest of the report: free them before
    # the distance matrix and the adjacent-angle triples are built.
    del pairs, angles
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
