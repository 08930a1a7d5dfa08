"""Layout aesthetics metrics: crossings, angles, edge lengths, vertex distribution.

All metrics are pure functions of (graph, layout).  Only the
vertex-distribution packing ratio normalizes (through `normalize_layout`),
so it accepts raw layouts; `compute_metrics` normalizes once and scores
every metric on that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import Graph
from .layout import Layout, normalize_layout

# Tolerance for "touching" cases in the crossing predicate: an endpoint
# lying (within eps) on another segment counts as a crossing.
CROSSING_EPS = 1e-12

# Edge pairs tested per block in find_crossings: a block is
# max(1, CROSSING_BLOCK_PAIRS // m) edges against all later edges.  Each
# tested pair holds about 140 bytes of temporaries, so a block stays under
# 5 MB; blocks of 2^17 pairs ran no faster and raised the peak RSS of a
# pipeline run on a 400-edge graph by 7 MB.
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
    sharing a vertex (perfect matchings).  `per_vertex_radii[i]` is
    r_i = min(d*_i / 2, d**_i) with its companions in the two distance
    tuples; vertex_distribution is pi * sum(r_i^2) / drawing_area.
    """

    crossings: int
    avg_crossing_angle: float
    avg_adjacent_angle: float | None
    edge_length_stdev: float
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

    The m(m-1)/2 edge pairs are tested in row blocks of edges against all
    later edges, about CROSSING_BLOCK_PAIRS pairs per block, so the working
    memory is bounded per block and only the output grows with the number
    of crossings: a random layout of queen 16x16 (m = 6320, 4.56 M
    crossings) peaks near 0.27 GB, most of it the output.
    """
    m = g.m
    e = np.asarray(g.edges)
    rows = max(1, CROSSING_BLOCK_PAIRS // max(m, 1))
    pairs, angles = [np.empty((0, 2), dtype=int)], [np.empty(0)]
    for a in range(0, m - 1, rows):
        b = min(a + rows, m - 1)
        head, tail = e[a:b, :, None], e[a:].T
        share = (
            (head[:, 0] == tail[0])
            | (head[:, 0] == tail[1])
            | (head[:, 1] == tail[0])
            | (head[:, 1] == tail[1])
        )
        later = np.arange(m - a) > np.arange(b - a)[:, None]
        ii, jj = np.nonzero(later & ~share)
        ii += a
        jj += a
        block_pairs, block_angles = _crossing_pairs_among(e, layout.coords, ii, jj)
        pairs.append(block_pairs)
        angles.append(block_angles)
    return np.concatenate(pairs), np.concatenate(angles)


def _crossing_pairs_among(e: np.ndarray, c: np.ndarray, ii: np.ndarray, jj: np.ndarray):
    """The crossing pairs among the candidate edge pairs (ii[k], jj[k]),
    which share no vertex, and their acute angles in degrees."""
    p1, p2 = c[e[ii, 0]], c[e[ii, 1]]
    p3, p4 = c[e[jj, 0]], c[e[jj, 1]]

    def cross2(a, b, pt):
        return (b[:, 0] - a[:, 0]) * (pt[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
            pt[:, 0] - a[:, 0]
        )

    def sign(v):
        return np.where(v > CROSSING_EPS, 1, np.where(v < -CROSSING_EPS, -1, 0))

    s1 = sign(cross2(p3, p4, p1))
    s2 = sign(cross2(p3, p4, p2))
    s3 = sign(cross2(p1, p2, p3))
    s4 = sign(cross2(p1, p2, p4))
    proper = (s1 * s2 < 0) & (s3 * s4 < 0)

    def in_bbox(a, b, pt):
        lo = np.minimum(a, b) - CROSSING_EPS
        hi = np.maximum(a, b) + CROSSING_EPS
        return np.all((pt >= lo) & (pt <= hi), axis=1)

    touching = (
        ((s1 == 0) & in_bbox(p3, p4, p1))
        | ((s2 == 0) & in_bbox(p3, p4, p2))
        | ((s3 == 0) & in_bbox(p1, p2, p3))
        | ((s4 == 0) & in_bbox(p1, p2, p4))
    )
    crossing = proper | touching
    ii, jj = ii[crossing], jj[crossing]
    u = c[e[ii, 1]] - c[e[ii, 0]]
    v = c[e[jj, 1]] - c[e[jj, 0]]
    dot = np.abs(u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1])
    nu = np.sqrt((u * u).sum(axis=1))
    nv = np.sqrt((v * v).sum(axis=1))
    denom = np.where(nu * nv == 0.0, 1.0, nu * nv)
    angles = np.degrees(np.arccos(np.clip(dot / denom, -1.0, 1.0)))
    return np.column_stack([ii, jj]), angles


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
    vab = np.fromiter(
        ((v, a, b) for v in range(g.n) for a, b in combinations(g.adjacency[v], 2)),
        dtype=(np.intp, 3),
    )
    if len(vab) == 0:
        return None
    c = layout.coords
    u1 = c[vab[:, 1]] - c[vab[:, 0]]
    u2 = c[vab[:, 2]] - c[vab[:, 0]]
    norms = np.hypot(u1[:, 0], u1[:, 1]) * np.hypot(u2[:, 0], u2[:, 1])
    # A zero-length edge in the drawing leaves the angle undefined: score
    # it 0 (fully folded), and still count the pair.
    folded = norms == 0.0
    cosang = (u1[:, 0] * u2[:, 0] + u1[:, 1] * u2[:, 1]) / np.where(folded, 1.0, norms)
    angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.where(folded, 0.0, angles).mean())


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
    vd = vertex_distribution(norm)
    return MetricsReport(
        crossings=len(pairs),
        avg_crossing_angle=float(angles.mean()) if len(angles) else 90.0,
        avg_adjacent_angle=avg_adjacent_angle(g, norm),
        edge_length_stdev=edge_length_stdev(g, norm),
        min_pair_distance_scaled=g.n * min(vd.nearest_vertex_distances),
        vertex_distribution=vd.distribution,
        drawing_area=vd.area,
        per_vertex_radii=vd.radii,
        nearest_vertex_distances=vd.nearest_vertex_distances,
        border_distances=vd.border_distances,
        degenerate_bbox=vd.degenerate,
    )
