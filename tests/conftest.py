import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from snburst import Graph


def cycle(n):
    """The n-cycle 0 - 1 - ... - (n-1) - 0."""
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def stub_graph(n, m):
    """A graph with the requested n and m: the first m pairs (i, j), i < j,
    in row-major order (the structure does not matter to the schedule)."""
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if k >= m:
                break
            edges.append((i, j))
            k += 1
    return Graph(n, tuple(edges))


def random_graph(n, m, rng):
    """Uniform random simple graph with exactly m edges."""
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, tuple(rng.sample(all_pairs, m)))


def random_connected_graph(n, m, rng):
    """Random spanning tree plus random extra edges up to m total."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(n, tuple(sorted(edges)))


def clustered_connected_graph(n_clusters, cluster_size, extra_edges, rng):
    """Dense random clusters joined in a ring plus random inter-cluster edges."""
    n = n_clusters * cluster_size
    edges = set()
    for c in range(n_clusters):
        base = c * cluster_size
        for i in range(cluster_size):
            for j in range(i + 1, cluster_size):
                if rng.random() < 0.9:
                    edges.add((base + i, base + j))
    for c in range(n_clusters):
        a = c * cluster_size + rng.randrange(cluster_size)
        b = ((c + 1) % n_clusters) * cluster_size + rng.randrange(cluster_size)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    for _ in range(extra_edges):
        a, b = rng.randrange(n), rng.randrange(n)
        if a // cluster_size != b // cluster_size:
            edges.add((min(a, b), max(a, b)))
    return Graph(n, tuple(sorted(edges)))


def random_layout_coords(n, rng):
    return np.array([[rng.random(), rng.random()] for _ in range(n)])


def lattice_coords(n):
    """Vertex i on point i mod 9 of the 3 x 3 lattice {0, 1/2, 1}^2, so
    every n > 9 starts with coincident vertices."""
    return np.array([[(i % 3) / 2, (i % 9 // 3) / 2] for i in range(n)])
