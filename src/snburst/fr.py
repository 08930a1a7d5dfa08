"""Naive all-pairs Fruchterman-Reingold baseline.

Classic FR on the unit square: k = sqrt(1/n), attraction d^2/k along
edges, repulsion k^2/d between all pairs, displacement capped by a linearly
decaying temperature, positions clipped to [0, 1].  All-pairs (no grid) on
purpose: it keeps the per-iteration cost O(n^2), the same as
Sync-and-Burst, so per-iteration timing comparisons are apples to apples.
`fr_run` holds only the FR iteration, as a generator of positions; the
seeded start, the workspace, the clock, the finiteness check, the
trajectory and the record come from `layout.iterate`, the loop SnB runs in
too.  It advances a batch of B seeds as one (B, 2, n) array, since the
temperature depends on t only; the displacement norm, its cap and the clip
act per seed and vertex.  Attraction is added only on the edges' flat
`layout.edge_pairs`, offset by k n^2 for batch row k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DegenerateGraphError, Graph
from .layout import (
    RunRecord,
    batch_seeds,
    edge_pairs,
    iterate,
    pair_directions,
)

_COINCIDENT_DIST = 1e-9
# The temperature at iteration 1, sized for the unit square FR lives on.
INITIAL_TEMPERATURE = 0.1


@dataclass(frozen=True)
class FrParams:
    """FR tunables, shaped like SnbParams: the run takes total_multiplier*n
    iterations from the seeded start.  INITIAL_TEMPERATURE is fixed."""

    seed: int = 0
    total_multiplier: int = 20

    def __post_init__(self):
        if self.total_multiplier < 1:
            raise ValueError(f"need total_multiplier >= 1, got {self.total_multiplier}")


def fr_temperature(t: int, total: int, t0: float) -> float:
    """Linear decay: t0 at the first iteration down to t0/total at the last."""
    return t0 * (total - t + 1) / total


def fr_run(
    g: Graph,
    params: FrParams | None = None,
    *,
    seeds=None,
    capture_every: int = 0,
) -> RunRecord | list[RunRecord]:
    """Run FR for total_multiplier*n iterations.

    Deterministic given (g, params), from SnB's seeded start.  Coincident
    vertices get a deterministic hashed direction (index t at iteration t)
    and a tiny separation distance; the resulting huge repulsion is
    harmless because displacement is capped by the temperature.  Returns
    the RunRecord of seed `params.seed`.  With `seeds`, runs those seeds
    instead (`params.seed` must then be left at 0) in the batches
    `layout.iterate` sizes, since the temperature depends only on t; each
    seed's record is bitwise what its own run gives.  Returns their records,
    in order.
    """
    if g.n < 2:
        raise DegenerateGraphError("a single vertex needs no layout")
    if params is None:
        params = FrParams()
    total = params.total_multiplier * g.n
    k = math.sqrt(1.0 / g.n)
    t0 = INITIAL_TEMPERATURE
    pairs = edge_pairs(g)

    def positions(pos, ws):
        # The edges' flat indices into the batch's (B, n, n) workspace arrays.
        edges = (pairs + g.n * g.n * np.arange(len(ws.seeds))[:, None]).reshape(-1)
        coef = ws.scratch
        d_flat, coef_flat = ws.d.reshape(-1), coef.reshape(-1)
        for t in range(1, total + 1):
            u, d = pair_directions(pos, t, ws)
            if ws.coincident:
                d[d == 0.0] = _COINCIDENT_DIST
            # Per pair: repulsion k^2/d away, plus attraction d^2/k toward a
            # neighbour, added on the edges only (0*x - y == -y elsewhere).
            # The edge indices are distinct, so `+=` adds to each one once.
            np.divide(-(k * k), d, out=coef)
            coef_flat[edges] += np.square(d_flat[edges]) / k
            ws.scratch_diagonal[...] = 0.0
            disp = np.einsum("bij,bcij->bci", coef, u)
            # Per seed and vertex: cap the displacement at the temperature.
            norm = np.sqrt(disp[:, 0] * disp[:, 0] + disp[:, 1] * disp[:, 1])
            temp = fr_temperature(t, total, t0)
            scale = np.where(norm > temp, temp / np.where(norm == 0.0, 1.0, norm), 1.0)
            pos = np.clip(pos + disp * scale[:, None], 0.0, 1.0)
            yield pos

    batch = batch_seeds(params.seed, seeds)
    records = iterate(g, "fr", batch, positions, capture_every=capture_every)
    return records[0] if seeds is None else records
