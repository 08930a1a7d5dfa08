"""Graph representation, file ingestion, generators and betweenness centrality."""

from __future__ import annotations

import logging
import math
import random
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace

log = logging.getLogger(__name__)


class GraphError(ValueError):
    """Invalid graph structure or generator parameters."""


class ParseError(GraphError):
    """Malformed graph input file."""


# The run errors live here, with numpy-free code, so the command line can
# map them to exit codes without loading the numeric modules; `layout`
# re-exports them.
class DegenerateGraphError(ValueError):
    """Graph too small to lay out (SnB needs n >= 2 and m >= 1, FR n >= 2)."""


class DegenerateLayoutError(ValueError):
    """All vertices coincide; the layout cannot be normalized."""


class NumericError(ArithmeticError):
    """An internal numeric invariant (finiteness) was violated."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    Vertices are dense 0-based indices.  `labels`, when present, maps each
    index back to the external id it came from in an input file.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None
    adjacency: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = self.vertex_count
        if n <= 0:
            raise GraphError("graph must have at least one vertex")
        if self.labels is not None and len(self.labels) != n:
            raise GraphError("labels length does not match vertex count")
        seen = set()
        canon = []
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))
        adj = [[] for _ in range(n)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adj))

    @property
    def n(self) -> int:
        return self.vertex_count

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class CentralityVector:
    """Per-vertex betweenness values plus their population stdev."""

    values: tuple[float, ...]
    stdev: float


# ---------------------------------------------------------------------------
# Parsers


def _dedup_edges(raw_edges, context=""):
    """Drop self-loops and duplicates, logging how many were dropped."""
    seen = set()
    edges = []
    loops = dups = 0
    for u, v in raw_edges:
        if u == v:
            loops += 1
            continue
        e = (u, v) if u < v else (v, u)
        if e in seen:
            dups += 1
            continue
        seen.add(e)
        edges.append(e)
    if loops or dups:
        log.warning(
            "%sdropped %d duplicate edge(s) and %d self-loop(s)",
            f"{context}: " if context else "",
            dups,
            loops,
        )
    return edges


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" edge-list text into a Graph.

    Blank lines and '#' comments are ignored.  Vertex ids need not be
    contiguous; they are compacted to [0, n) in first-appearance order with
    the originals kept as labels.  Duplicate edges and self-loops are
    dropped (counts go to the log).
    """
    ids: dict[int, int] = {}
    raw_edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if a < 0 or b < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {raw!r}")
        for x in (a, b):
            if x not in ids:
                ids[x] = len(ids)
        raw_edges.append((ids[a], ids[b]))
    if not ids:
        raise ParseError("empty input: no vertices found")
    edges = _dedup_edges(raw_edges, "edge list")
    return Graph(len(ids), tuple(edges), labels=tuple(str(k) for k in ids))


def parse_graphml(text: str) -> Graph:
    """Parse a minimal GraphML subset (node/edge elements with ids).

    Edge direction attributes are ignored; the result is undirected.
    Ports, hyperedges and nested graphs are rejected.

    The nodes and edges are the direct <node> and <edge> children of the
    first <graph>; edges may come before the nodes they name, and the
    labels are the node ids in declaration order.  The text is fed to an
    `xml.etree.ElementTree.XMLParser` 2^14 characters at a time, and the
    parser's target reads each tag as it starts, from its name, its
    attributes and its depth, so no element is built.  A problem is
    reported once the whole text has been read, the first of these that
    occurs: ill-formed XML; no <graph>; the first port, hyperedge or
    second graph in document order; the first child node without an id or
    with a repeated id, or child edge without a source or target; no node;
    the first edge naming an undeclared node.
    """
    ids: dict[str, int] = {}
    raw_edges = []
    depth = 0  # of the innermost open tag
    # The depth of the first <graph>'s children: None before that graph, 0
    # (no tag's depth) once it has closed.
    children = None
    unsupported = None  # the first unsupported element's message
    bad_child = None  # the first malformed <node> or <edge> message

    def start(tag, attrib):
        nonlocal depth, children, unsupported, bad_child
        depth += 1
        name = tag.rsplit("}", 1)[-1]
        if name == "node" or name == "edge":
            if depth != children or bad_child:
                return
            if name == "node":
                nid = attrib.get("id")
                if nid is None:
                    bad_child = "node without id attribute"
                elif nid in ids:
                    bad_child = f"duplicate node id {nid!r}"
                else:
                    ids[nid] = len(ids)
            else:
                src, dst = attrib.get("source"), attrib.get("target")
                if src is None or dst is None:
                    bad_child = "edge without source/target"
                else:
                    raw_edges.append((src, dst))
        elif name == "graph":
            if children is None:
                children = depth + 1
            elif unsupported is None:
                unsupported = "unsupported GraphML feature: nested graphs"
        elif name in ("port", "hyperedge") and unsupported is None:
            unsupported = f"unsupported GraphML feature: <{name}>"

    def end(tag):
        nonlocal depth, children
        if depth + 1 == children:
            children = 0
        depth -= 1

    parser = ET.XMLParser(target=SimpleNamespace(start=start, end=end))
    # About 400 elements of written GraphML.  2^12 and 2^16 parse at the
    # same speed; feeding the 2.3 MiB text of scale-free n = 20 000 whole
    # traced 23.8 MiB against 19.9 MiB: the parser encodes and buffers what
    # it is fed.
    piece = 1 << 14
    try:
        for at in range(0, len(text), piece):
            parser.feed(text[at:at + piece])
        parser.close()
    except ET.ParseError as exc:
        raise ParseError(f"not well-formed GraphML: {exc}") from None
    if children is None:
        raise ParseError("no <graph> element found")
    if unsupported or bad_child:
        raise ParseError(unsupported or bad_child)
    if not ids:
        raise ParseError("GraphML graph contains no nodes")
    for src, dst in raw_edges:
        if src not in ids or dst not in ids:
            raise ParseError(f"edge references undeclared node ({src!r}, {dst!r})")
    edges = _dedup_edges(((ids[s], ids[d]) for s, d in raw_edges), "GraphML")
    return Graph(len(ids), tuple(edges), labels=tuple(ids))


# ---------------------------------------------------------------------------
# Writers (used by the generate command)


def write_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n} m={g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def write_graphml(g: Graph) -> str:
    """GraphML text of g: nodes n0, n1, ... and edges e0, e1, ... in
    `g.edges` order, written as `xml.etree.ElementTree.tostring` would
    write that tree with a UTF-8 declaration, on one line."""
    nodes = "".join([f'<node id="n{i}" />' for i in range(g.n)])
    edges = "".join(
        [f'<edge id="e{k}" source="n{u}" target="n{v}" />' for k, (u, v) in enumerate(g.edges)]
    )
    return (
        "<?xml version='1.0' encoding='utf-8'?>\n"
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        f'<graph id="G" edgedefault="undirected">{nodes}{edges}</graph></graphml>\n'
    )


# ---------------------------------------------------------------------------
# Generators


def gen_queen(rows: int, cols: int) -> Graph:
    """Queen graph: board squares joined iff a queen moves between them."""
    if rows < 1 or cols < 1:
        raise GraphError("rows and cols must be positive")
    n = rows * cols
    squares = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for i in range(n):
        r1, c1 = squares[i]
        for j in range(i + 1, n):
            r2, c2 = squares[j]
            if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                edges.append((i, j))
    return Graph(n, tuple(edges))


def gen_lcf(n: int, pattern: list[int]) -> Graph:
    """Cubic Hamiltonian graph from LCF notation: an n-cycle plus chords."""
    edges = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i) for i in range(n)}
    for i in range(n):
        off = pattern[i % len(pattern)]
        j = (i + off) % n
        edges.add((i, j) if i < j else (j, i))
    return Graph(n, tuple(sorted(edges)))


def gen_wagner() -> Graph:
    """Wagner graph: the Moebius ladder on 8 vertices (8-cycle + 4 diameters)."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    return Graph(8, tuple(edges))


def gen_heawood() -> Graph:
    """Heawood graph: 14-vertex cubic graph, LCF [5, -5]^7."""
    return gen_lcf(14, [5, -5])


def gen_scale_free(
    n: int,
    edges_per_step: int = 1,
    *,
    seed: int = 0,
    target_m: int | None = None,
) -> Graph:
    """Barabasi-Albert preferential attachment graph, always connected.

    Starts from a complete graph on `edges_per_step` vertices; each new
    vertex attaches to `edges_per_step` distinct existing vertices chosen
    with probability proportional to degree.  With `target_m`, extra edges
    are added afterwards (endpoints again degree-biased) until the edge
    count reaches the target.
    """
    k = edges_per_step
    if not (n > k >= 1):
        raise GraphError("need n > edges_per_step >= 1")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edge_set = set(edges)
    # Vertices repeated in proportion to their attachment weight.
    pool = list(range(k))
    for v in range(k, n):
        targets: set[int] = set()
        while len(targets) < k:
            targets.add(rng.choice(pool))
        for t in sorted(targets):
            edges.append((t, v))
            edge_set.add((t, v))
            pool.append(t)
            pool.append(v)
    if target_m is not None:
        if target_m < len(edges):
            raise GraphError(
                f"target_m={target_m} below the {len(edges)} edges of the base graph"
            )
        max_m = n * (n - 1) // 2
        if target_m > max_m:
            raise GraphError(f"target_m={target_m} exceeds simple-graph maximum {max_m}")
        while len(edges) < target_m:
            a, b = rng.choice(pool), rng.choice(pool)
            if a == b:
                continue
            e = (a, b) if a < b else (b, a)
            if e in edge_set:
                continue
            edge_set.add(e)
            edges.append(e)
            pool.append(a)
            pool.append(b)
    return Graph(n, tuple(edges))


GENERATORS = {
    "queen": gen_queen,
    "wagner": gen_wagner,
    "heawood": gen_heawood,
    "scale-free": gen_scale_free,
}


# ---------------------------------------------------------------------------
# Betweenness centrality


def betweenness(g: Graph) -> CentralityVector:
    """Exact unweighted shortest-path betweenness (Brandes accumulation).

    Unnormalized; each unordered vertex pair is counted once, i.e. the
    directed accumulation halved.  Disconnected graphs are handled
    naturally (unreachable pairs contribute nothing).
    """
    n = g.n
    cb = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in g.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                cb[w] += delta[w]
    values = tuple(x / 2.0 for x in cb)
    mean = sum(values) / n
    stdev = math.sqrt(sum((x - mean) ** 2 for x in values) / n)
    return CentralityVector(values, stdev)
