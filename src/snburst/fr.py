"""Naive all-pairs Fruchterman-Reingold baseline.

Classic FR on the unit square: k = sqrt(1/n), attraction d^2/k along
edges, repulsion k^2/d between all pairs, displacement capped by a linearly
decaying temperature, positions clipped to [0, 1].  All-pairs (no grid) on
purpose: it keeps the per-iteration cost O(n^2), the same as
Sync-and-Burst, so per-iteration timing comparisons are apples to apples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .layout import (
    DegenerateGraphError,
    Layout,
    NumericError,
    RunRecord,
    adjacency_matrix,
    initial_layout,
    pair_directions,
)

_COINCIDENT_DIST = 1e-9


@dataclass(frozen=True)
class FrParams:
    """FR tunables.  None means the derived default: 20n iterations and
    an initial temperature of 0.1 (the layout lives on the unit square)."""

    iterations: int | None = None
    initial_temperature: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.initial_temperature is not None and self.initial_temperature <= 0:
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
    vertices get a deterministic hashed direction and a tiny separation
    distance; the resulting huge repulsion is harmless because displacement
    is capped by the temperature.
    """
    if g.n < 2:
        raise DegenerateGraphError("a single vertex needs no layout")
    if params is None:
        params = FrParams()
    total = params.iterations if params.iterations is not None else 20 * g.n
    t0 = params.initial_temperature if params.initial_temperature is not None else 0.1
    k = math.sqrt(1.0 / g.n)
    adj = adjacency_matrix(g)
    pos = np.ascontiguousarray(initial_layout(g, params.seed).coords.T)
    trajectory = []
    start = time.perf_counter()
    for t in range(1, total + 1):
        u, d = pair_directions(pos, t, params.seed)
        d[d == 0.0] = _COINCIDENT_DIST
        # Per pair: attraction d^2/k toward (adjacent only), repulsion k^2/d away.
        coef = adj * (d * d / k) - (k * k) / d
        np.fill_diagonal(coef, 0.0)
        disp = np.einsum("ij,cij->ci", coef, u)
        norm = np.sqrt(disp[0] * disp[0] + disp[1] * disp[1])
        temp = fr_temperature(t, total, t0)
        scale = np.where(norm > temp, temp / np.where(norm == 0.0, 1.0, norm), 1.0)
        pos = np.clip(pos + disp * scale, 0.0, 1.0)
        if not np.all(np.isfinite(pos)):
            raise NumericError("non-finite coordinates in FR iteration")
        if capture_every and t % capture_every == 0:
            trajectory.append((t, Layout(pos.T, t)))
    elapsed = time.perf_counter() - start
    return RunRecord(
        graph_id=graph_id,
        algorithm="fr",
        seed=params.seed,
        n=g.n,
        m=g.m,
        iterations=total,
        wall_time_total=elapsed,
        wall_time_per_iteration=elapsed / total,
        final_layout=Layout(pos.T, total),
        trajectory=trajectory,
    )
