"""Naive all-pairs Fruchterman-Reingold baseline.

Classic FR on the unit square: k = sqrt(1/n), attraction d^2/k along
edges, repulsion k^2/d between all pairs, displacement capped by a linearly
decaying temperature, positions clipped to [0, 1].  All-pairs (no grid) on
purpose: it keeps the per-iteration cost O(n^2), the same as
Sync-and-Burst, so per-iteration timing comparisons are apples to apples.
`fr_run` holds only the FR iteration, as a generator of positions; the
seeded start, the clock, the finiteness check, the trajectory and the
record come from `layout.iterate`, the loop SnB runs in too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .layout import (
    DegenerateGraphError,
    RunRecord,
    adjacency_matrix,
    iterate,
    pair_directions,
)

_COINCIDENT_DIST = 1e-9


@dataclass(frozen=True)
class FrParams:
    """FR tunables.  `iterations` None means 20n; the initial temperature
    defaults to 0.1 because the layout lives on the unit square."""

    iterations: int | None = None
    initial_temperature: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")


def fr_temperature(t: int, total: int, t0: float) -> float:
    """Linear decay: t0 at the first iteration down to t0/total at the last."""
    return t0 * (total - t + 1) / total


def fr_run(
    g: Graph,
    params: FrParams | None = None,
    *,
    graph_id: str = "",
    capture_every: int = 0,
) -> RunRecord:
    """Run FR for the configured iteration count (default 20n).

    Deterministic given (g, params), from SnB's seeded start.  Coincident
    vertices get a deterministic hashed direction (index t at iteration t)
    and a tiny separation distance; the resulting huge repulsion is
    harmless because displacement is capped by the temperature.
    """
    if g.n < 2:
        raise DegenerateGraphError("a single vertex needs no layout")
    if params is None:
        params = FrParams()
    total = params.iterations if params.iterations is not None else 20 * g.n
    k = math.sqrt(1.0 / g.n)
    adj = adjacency_matrix(g)

    def positions(pos):
        for t in range(1, total + 1):
            # u, d and coef stay bound across the yield (see `iterate`).
            u, d = pair_directions(pos, t, params.seed)
            d[d == 0.0] = _COINCIDENT_DIST
            # Per pair: attraction d^2/k toward (adjacent only), repulsion k^2/d away.
            coef = adj * (d * d / k) - (k * k) / d
            np.fill_diagonal(coef, 0.0)
            disp = np.einsum("ij,cij->ci", coef, u)
            norm = np.sqrt(disp[0] * disp[0] + disp[1] * disp[1])
            temp = fr_temperature(t, total, params.initial_temperature)
            scale = np.where(norm > temp, temp / np.where(norm == 0.0, 1.0, norm), 1.0)
            pos = np.clip(pos + disp * scale, 0.0, 1.0)
            yield pos

    return iterate(g, "fr", params.seed, positions, graph_id=graph_id,
                   capture_every=capture_every)
