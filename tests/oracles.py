"""Independent brute-force oracles for cross-checking the package.

Everything here but the last section deliberately avoids the implementation
routes used by the package: betweenness by full shortest-path enumeration,
crossings by parametric line intersection, nearest-neighbor distances via a
KD-tree, angles via atan2 differences, means via exact fractions.  The
last sections instead freeze earlier versions of the package's own code
as bitwise references for its fast paths: the dense iterations, one fresh
array per operation, the crossing pass that gathers the endpoints of every
candidate pair, the adjacent-angle pass over all pairs at once and the
GraphML parser that built the whole element tree.
"""

from __future__ import annotations

import math
import statistics
import xml.etree.ElementTree as ET
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
from scipy.spatial import cKDTree

from snburst.metrics import CROSSING_EPS
from snburst.rng import hash_angle


# ---------------------------------------------------------------------------
# Graph-side oracles


def brute_betweenness(g):
    """Betweenness by explicit enumeration of all shortest paths per pair."""
    n = g.n
    vals = [0.0] * n

    def bfs_dist(src):
        dist = {src: 0}
        q = deque([src])
        while q:
            v = q.popleft()
            for w in g.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        return dist

    for s in range(n):
        dist = bfs_dist(s)
        for t in range(s + 1, n):
            if t not in dist:
                continue
            # Enumerate shortest paths backwards from t.
            paths = []
            stack = [(t, [t])]
            while stack:
                v, path = stack.pop()
                if v == s:
                    paths.append(path)
                    continue
                for w in g.adjacency[v]:
                    if w in dist and dist[w] == dist[v] - 1:
                        stack.append((w, path + [w]))
            for path in paths:
                for v in path[1:-1]:
                    vals[v] += 1.0 / len(paths)
    return vals


def queen_edge_count(rows, cols):
    """Closed-form queen-move pair count (no pair scan)."""
    m = rows * comb(cols, 2) + cols * comb(rows, 2)
    diag1 = Counter(i + j for i in range(rows) for j in range(cols))
    diag2 = Counter(i - j for i in range(rows) for j in range(cols))
    m += sum(comb(length, 2) for length in diag1.values())
    m += sum(comb(length, 2) for length in diag2.values())
    return m


def girth(g):
    """Shortest cycle length by BFS from every vertex; inf if acyclic."""
    best = math.inf
    for src in range(g.n):
        dist = {src: 0}
        parent = {src: -1}
        q = deque([src])
        while q:
            v = q.popleft()
            for w in g.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    q.append(w)
                elif parent[v] != w:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def is_bipartite(g):
    color = {}
    for src in range(g.n):
        if src in color:
            continue
        color[src] = 0
        q = deque([src])
        while q:
            v = q.popleft()
            for w in g.adjacency[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    q.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def is_connected(g):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# Layout-step oracles (scalar loops over vertex pairs; no coincident vertices)


def _unit(coords, i, j):
    dx = coords[j][0] - coords[i][0]
    dy = coords[j][1] - coords[i][1]
    d = math.hypot(dx, dy)
    return dx / d, dy / d, d


def snb_step(g, coords, magnitude_prev, attraction_exponent=0.9):
    """One Sync-and-Burst step: force m*M^0.9 toward each neighbour and M
    away from every vertex, divided by M, then centred and scaled to unit
    max-extent."""
    n = len(coords)
    ratio = g.m * magnitude_prev ** (attraction_exponent - 1.0)
    adjacent = {frozenset(e) for e in g.edges}
    forces = []
    for i in range(n):
        fx = fy = 0.0
        for j in range(n):
            if j == i:
                continue
            ux, uy, _ = _unit(coords, i, j)
            w = (ratio if frozenset((i, j)) in adjacent else 0.0) - 1.0
            fx += w * ux
            fy += w * uy
        forces.append((fx, fy))
    cx = sum(f[0] for f in forces) / n
    cy = sum(f[1] for f in forces) / n
    xs = [f[0] - cx for f in forces]
    ys = [f[1] - cy for f in forces]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    return [(x / extent, y / extent) for x, y in zip(xs, ys)]


def fr_iteration(g, coords, temperature, side=1.0):
    """One Fruchterman-Reingold iteration with k = sqrt(side^2/n): attraction
    d^2/k along edges, repulsion k^2/d between all pairs, displacement capped
    at `temperature`, positions clipped to [0, side]^2."""
    n = len(coords)
    k = math.sqrt(side * side / n)
    adjacent = {frozenset(e) for e in g.edges}
    out = []
    for i in range(n):
        dx = dy = 0.0
        for j in range(n):
            if j == i:
                continue
            ux, uy, d = _unit(coords, i, j)
            c = (d * d / k if frozenset((i, j)) in adjacent else 0.0) - k * k / d
            dx += c * ux
            dy += c * uy
        norm = math.hypot(dx, dy)
        if norm > temperature:
            dx, dy = dx * temperature / norm, dy * temperature / norm
        x = min(max(coords[i][0] + dx, 0.0), side)
        y = min(max(coords[i][1] + dy, 0.0), side)
        out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# Geometry-side oracles

_TINY = 1e-12


def _on_segment(p, a, b):
    """Point p lies on the segment a-b (a point if a == b), within _TINY."""
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    return abs(cross) <= _TINY and all(
        min(a[k], b[k]) - _TINY <= p[k] <= max(a[k], b[k]) + _TINY for k in (0, 1)
    )


def _seg_intersect(p1, p2, p3, p4):
    """Parametric segment intersection (endpoint touching included).

    A zero-length edge is a point: it crosses a segment only by lying on it.
    """
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = p4[0] - p3[0], p4[1] - p3[1]
    if rx == ry == 0:
        return _on_segment(p1, p3, p4)
    if sx == sy == 0:
        return _on_segment(p3, p1, p2)
    qx, qy = p3[0] - p1[0], p3[1] - p1[1]
    denom = rx * sy - ry * sx
    if abs(denom) > _TINY:
        t = (qx * sy - qy * sx) / denom
        u = (qx * ry - qy * rx) / denom
        return -_TINY <= t <= 1 + _TINY and -_TINY <= u <= 1 + _TINY
    # Parallel: crossing only if collinear and overlapping.
    if abs(qx * ry - qy * rx) > _TINY:
        return False
    # Project on the dominant axis.
    axis = 0 if abs(rx) >= abs(ry) else 1
    a, b = sorted((p1[axis], p2[axis]))
    c, d = sorted((p3[axis], p4[axis]))
    return max(a, c) <= min(b, d) + _TINY


def crossing_pairs(g, coords):
    """All crossing edge pairs (edge-index pairs, vertex-sharing excluded)."""
    pairs = []
    for (i, (a, b)), (j, (c, d)) in combinations(enumerate(g.edges), 2):
        if len({a, b, c, d}) < 4:
            continue
        if _seg_intersect(coords[a], coords[b], coords[c], coords[d]):
            pairs.append((i, j))
    return pairs


def acute_angle_deg(u, v):
    """Acute angle between two direction vectors via atan2 difference."""
    a = math.atan2(u[1], u[0]) - math.atan2(v[1], v[0])
    a = abs(a) % math.pi
    a = min(a, math.pi - a)
    return math.degrees(a)


def avg_crossing_angle(g, coords):
    pairs = crossing_pairs(g, coords)
    if not pairs:
        return 90.0
    angles = []
    for i, j in pairs:
        a, b = g.edges[i]
        c, d = g.edges[j]
        u = (coords[b][0] - coords[a][0], coords[b][1] - coords[a][1])
        v = (coords[d][0] - coords[c][0], coords[d][1] - coords[c][1])
        angles.append(acute_angle_deg(u, v))
    return sum(angles) / len(angles)


def avg_adjacent_angle(g, coords):
    angles = []
    for v in range(g.n):
        for a, b in combinations(g.adjacency[v], 2):
            a1 = math.atan2(coords[a][1] - coords[v][1], coords[a][0] - coords[v][0])
            a2 = math.atan2(coords[b][1] - coords[v][1], coords[b][0] - coords[v][0])
            d = abs(a1 - a2) % (2 * math.pi)
            if d > math.pi:
                d = 2 * math.pi - d
            angles.append(math.degrees(d))
    if not angles:
        return None
    return sum(angles) / len(angles)


def exact_mean(values):
    """The mean of float `values`, rounded once: the float nearest to
    their exact sum over their number (None if there are none)."""
    values = [Fraction(v) for v in np.asarray(values, dtype=float).tolist()]
    return float(sum(values, Fraction(0)) / len(values)) if values else None


def edge_length_stdev(g, coords):
    lengths = [
        math.dist(coords[u], coords[v]) for u, v in g.edges
    ]
    return statistics.pstdev(lengths)


def min_pair_distance_scaled(coords):
    n = len(coords)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, math.dist(coords[i], coords[j]))
    return n * best


def vertex_distribution(coords):
    """Packing ratio via KD-tree nearest neighbors on the rescaled box."""
    n = len(coords)
    xs = [p[0] for p in coords]
    ys = [p[1] for p in coords]
    side = max(max(xs) - min(xs), max(ys) - min(ys))
    pts = [((x - min(xs)) / side, (y - min(ys)) / side) for x, y in coords]
    w = (max(xs) - min(xs)) / side
    h = (max(ys) - min(ys)) / side
    w = max(w, 1e-9)
    h = max(h, 1e-9)
    tree = cKDTree(pts)
    dists, _ = tree.query(pts, k=2)
    d_star = dists[:, 1]
    radii = []
    for (x, y), ds in zip(pts, d_star):
        d_border = max(min(x, w - x, y, h - y), 0.0)
        radii.append(min(ds / 2.0, d_border))
    area = w * h
    return math.pi * sum(r * r for r in radii) / area, radii, w, h


# ---------------------------------------------------------------------------
# Frozen dense iterations: bitwise references for the in-place kernel.  Each
# takes and returns C-contiguous (2, n) positions and allocates every n x n
# intermediate afresh, as the package did before its per-run workspace.


def dense_adjacency(g):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def dense_pair_directions(pos, iteration, seed):
    """Unit directions (2, n, n) and distances (n, n, diagonal 1); a
    coincident pair (i < j) gets hash_angle(seed, iteration, i, j)."""
    delta = pos[:, None, :] - pos[:, :, None]
    dx, dy = delta
    d = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(d, 1.0)
    coincident = d == 0.0
    u = delta / np.where(coincident, 1.0, d)
    for i, j in zip(*np.nonzero(np.triu(coincident))):
        theta = hash_angle(seed, iteration, int(i), int(j))
        u[:, i, j] = math.cos(theta), math.sin(theta)
        u[:, j, i] = -u[:, i, j]
    return u, d


def dense_fr_iteration(adj, pos, t, total, seed, t0=0.1):
    """FR iteration t of `total` on the unit square (hash index t)."""
    k = math.sqrt(1.0 / pos.shape[1])
    u, d = dense_pair_directions(pos, t, seed)
    d[d == 0.0] = 1e-9
    coef = adj * (d * d / k) - (k * k) / d
    np.fill_diagonal(coef, 0.0)
    disp = np.einsum("ij,cij->ci", coef, u)
    norm = np.sqrt(disp[0] * disp[0] + disp[1] * disp[1])
    temp = t0 * (total - t + 1) / total
    scale = np.where(norm > temp, temp / np.where(norm == 0.0, 1.0, norm), 1.0)
    return np.clip(pos + disp * scale, 0.0, 1.0)


def dense_snb_step(adj, pos, iteration, seed, ratio):
    """SnB step from `pos` (hash index `iteration`) with attraction:repulsion
    ratio `ratio`, renormalized to zero centroid and unit max-extent."""
    u, _ = dense_pair_directions(pos, iteration, seed)
    f = ratio * np.einsum("ij,cij->ci", adj, u) - u.sum(axis=2)
    f -= f.mean(axis=1, keepdims=True)
    extent = np.ptp(f, axis=1).max()
    if extent > 0.0:
        f /= extent
    return f


# ---------------------------------------------------------------------------
# Frozen gathered crossing pass: a bitwise reference for find_crossings.
# Each row block gathers the endpoints of its candidate pairs (no shared
# vertex, j > i) and runs the full predicate on every one of them.

GATHERED_BLOCK_PAIRS = 1 << 15


def gathered_find_crossings(g, layout):
    """(pairs, angles) as find_crossings returns them."""
    m = g.m
    e = np.asarray(g.edges)
    rows = max(1, GATHERED_BLOCK_PAIRS // max(m, 1))
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
        block_pairs, block_angles = _gathered_crossing_pairs_among(e, layout.coords, ii, jj)
        pairs.append(block_pairs)
        angles.append(block_angles)
    return np.concatenate(pairs), np.concatenate(angles)


def _gathered_crossing_pairs_among(e, c, ii, jj):
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


# ---------------------------------------------------------------------------
# Frozen adjacent-angle pass: a bitwise reference for the angles that
# avg_adjacent_angle scores, all pairs at once.


def gathered_adjacent_angles(g, coords):
    """Every adjacent-edge pair's angle (degrees) in one array, in
    itertools.combinations order, as avg_adjacent_angle's blocks give
    them: both edge vectors from the shared vertex, their hypot lengths,
    one arccos, and 0 where an edge has zero length."""
    triples = [(v, a, b) for v in range(g.n) for a, b in combinations(g.adjacency[v], 2)]
    v, a, b = np.array(triples, dtype=np.intp).reshape(-1, 3).T
    ua, ub = coords[a] - coords[v], coords[b] - coords[v]
    norms = np.hypot(ua[:, 0], ua[:, 1]) * np.hypot(ub[:, 0], ub[:, 1])
    dot = ua[:, 0] * ub[:, 0] + ua[:, 1] * ub[:, 1]
    denom = np.where(norms == 0.0, 1.0, norms)
    return np.where(norms == 0.0, 0.0, np.degrees(np.arccos(np.clip(dot / denom, -1.0, 1.0))))


# ---------------------------------------------------------------------------
# Frozen GraphML parser: a reference for parse_graphml's result and for
# which problem it reports first, from the whole element tree.


def tree_parse_graphml(text):
    """("graph", n, edges, labels) for GraphML text, edges as sorted
    (u, v) pairs with u < v, self-loops and repeats dropped; or ("error",
    message) with the message parse_graphml's ParseError carries."""

    def name(tag):
        return tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return "error", f"not well-formed GraphML: {exc}"
    graphs = [el for el in root.iter() if name(el.tag) == "graph"]
    if not graphs:
        return "error", "no <graph> element found"
    gel = graphs[0]
    for el in root.iter():
        if name(el.tag) in ("port", "hyperedge"):
            return "error", f"unsupported GraphML feature: <{name(el.tag)}>"
        if name(el.tag) == "graph" and el is not gel:
            return "error", "unsupported GraphML feature: nested graphs"
    ids, raw_edges = {}, []
    for el in gel:
        if name(el.tag) == "node":
            nid = el.get("id")
            if nid is None:
                return "error", "node without id attribute"
            if nid in ids:
                return "error", f"duplicate node id {nid!r}"
            ids[nid] = len(ids)
        elif name(el.tag) == "edge":
            src, dst = el.get("source"), el.get("target")
            if src is None or dst is None:
                return "error", "edge without source/target"
            raw_edges.append((src, dst))
    if not ids:
        return "error", "GraphML graph contains no nodes"
    for src, dst in raw_edges:
        if src not in ids or dst not in ids:
            return "error", f"edge references undeclared node ({src!r}, {dst!r})"
    edges = {tuple(sorted((ids[s], ids[d]))) for s, d in raw_edges if s != d}
    return "graph", len(ids), tuple(sorted(edges)), tuple(ids)
