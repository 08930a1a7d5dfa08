"""The Sync-and-Burst engine: magnitude schedule, step and full runs.

The algorithm applies a uniform repulsion magnitude M(t) to every vertex
pair and an attraction magnitude m*M(t)^0.9 to every adjacent pair; the
new coordinates of a vertex are the raw force sums, so only the angles
between vertices in the previous layout matter.  M(t) grows like t^10,
but with the derived s, log M(20n) is only 72-97 on dense graphs (queen
8x8 and 16x16, K60, scale-free n = 400), far below the 709.8 where exp
overflows.  A user-given tiny s is what leaves float range: with s = 1e-300,
M(1) already overflows.  So all magnitude arithmetic here is done in log
space; each step works with the attraction:repulsion ratio m*M^(-0.1),
which stays in range; `magnitude` returns inf, and `total_magnitude_curve`
writes inf totals but keeps the sign of f.  Every step output is
renormalized (zero centroid, unit max-extent); this is exactly
trajectory-preserving because the step depends only on directions between
points.  Inside the loop the coordinates of B seeds' layouts are a
C-contiguous (B, 2, n) float64 array of x and y rows: s, the sync length
and M(t) depend on the graph only, so the seeds share one schedule.  The
directions come from `layout.pair_directions`, which the FR baseline
shares; the attraction goes through one dense adjacency, set on the flat
`layout.edge_pairs`, that serves every batch.  `snb_run` holds only the
SnB iteration, as a generator of positions; `layout.iterate` splits the
seeds into batches, gives each its workspace and starts, times, checks,
snapshots and records it, as it does for FR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DegenerateGraphError, Graph, betweenness
from .layout import (
    Layout,
    PairWorkspace,
    RunRecord,
    batch_seeds,
    edge_pairs,
    iterate,
    pair_directions,
)

MAX_SYNC_PARAM = 4.0
SYNC_PARAM_NUMERATOR = 20.0
# The paper's fixed constants: attraction m*M^0.9, schedule M(t) = (...)^10.
ATTRACTION_EXPONENT = 0.9
SCHEDULE_EXPONENT = 10


@dataclass(frozen=True)
class SnbParams:
    """Tunables for one Sync-and-Burst run.

    `sync_param` is s: the sync phase lasts about s*n of the
    total_multiplier*n iterations.  Everything else is the paper's:
    ATTRACTION_EXPONENT, SCHEDULE_EXPONENT and M(0) = 1/m.
    """

    sync_param: float
    seed: int = 0
    total_multiplier: int = 20

    def __post_init__(self):
        s = self.sync_param
        b = self.total_multiplier - s
        if not (0.0 < s < b):
            raise ValueError(
                f"need 0 < s < b (s={s}, total_multiplier={self.total_multiplier})"
            )


def _require_schedulable(g: Graph):
    if g.n < 2:
        raise DegenerateGraphError("a single vertex needs no layout")
    if g.m < 1:
        raise DegenerateGraphError("the magnitude schedule requires at least one edge")


def log_magnitude(t: int, g: Graph, p: SnbParams) -> float:
    """Natural log of the repulsion magnitude M(t) for t >= 1."""
    _require_schedulable(g)
    if t < 1:
        raise ValueError("t must be >= 1")
    base = (
        math.log(2.0)
        + math.log(t)
        + 2.0 * math.log(g.m)
        - math.log(p.sync_param)
        - 2.0 * math.log(g.n)
        - math.log(g.n - 1)
    )
    return SCHEDULE_EXPONENT * base


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def magnitude(t: int, g: Graph, p: SnbParams) -> float:
    """Uniform repulsion magnitude M(t) = (2 t m^2 / (s n^2 (n-1)))^10;
    inf where it leaves float range."""
    return _safe_exp(log_magnitude(t, g, p))


def log_turning_point_magnitude(g: Graph) -> float:
    """Natural log of the magnitude where total attraction equals total repulsion."""
    _require_schedulable(g)
    base = math.log(2.0) + 2.0 * math.log(g.m) - math.log(g.n) - math.log(g.n - 1)
    return base / (1.0 - ATTRACTION_EXPONENT)


def turning_point_magnitude(g: Graph) -> float:
    """M at the sync/burst turning point: (2 m^2 / (n (n-1)))^10."""
    return math.exp(log_turning_point_magnitude(g))


def total_magnitude_curve(g: Graph, p: SnbParams, t_max: int):
    """Per-iteration totals (t, Ma, Mr, f) under the magnitude schedule.

    Ma = 2 M(t)^0.9 m^2, Mr = M(t) n (n-1), f = Ma - Mr.  The sign of f is
    always computed in log space so it stays meaningful even when the
    plain values overflow to infinity.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    _require_schedulable(g)
    rows = []
    for t in range(1, t_max + 1):
        lm = log_magnitude(t, g, p)
        la = math.log(2.0) + ATTRACTION_EXPONENT * lm + 2.0 * math.log(g.m)
        lr = lm + math.log(g.n) + math.log(g.n - 1)
        ma, mr = _safe_exp(la), _safe_exp(lr)
        f = ma - mr
        if math.isnan(f):  # inf - inf: recover the sign from the logs
            f = math.inf if la > lr else -math.inf
        rows.append((t, ma, mr, f))
    return rows


def compute_sync_param(g: Graph) -> float:
    """s = min(4, 20 / stdev of betweenness centralities), capped at 4.

    Zero stdev (e.g. vertex-transitive graphs) yields the cap.
    """
    _require_schedulable(g)
    stdev = betweenness(g).stdev
    if stdev == 0.0:
        return MAX_SYNC_PARAM
    return min(MAX_SYNC_PARAM, SYNC_PARAM_NUMERATOR / stdev)


def sync_phase_iterations(g: Graph, p: SnbParams) -> int:
    """Iteration count of the sync phase: ceil(s*n)."""
    return math.ceil(p.sync_param * g.n)


# ---------------------------------------------------------------------------
# Stepping


def _adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix of `g`."""
    a = np.zeros((g.n, g.n))
    a.reshape(-1)[edge_pairs(g)] = 1.0
    return a


def _step(u, adj, log_m, log_mag_prev):
    """One Sync-and-Burst iteration of B layouts from their unit directions
    `u`, (B, 2, n, n) as `layout.pair_directions` gives them.

    The attraction:repulsion magnitude ratio m*M(t-1)^(-0.1) is taken here
    alone, in log space from log m and log M(t-1); it depends on the graph
    and t only, so one value serves the batch, and the common factor M is
    dropped since the output is renormalized anyway.  Returns the (B, 2, n)
    array, each layout renormalized on its own (zero centroid, unit max-extent).
    """
    ratio = math.exp(log_m + (ATTRACTION_EXPONENT - 1.0) * log_mag_prev)
    # Force sum per vertex: ratio on adjacent pairs minus 1 on all pairs.
    # u has a zero diagonal, so the i = j terms drop out by themselves.
    f = ratio * np.einsum("ij,bcij->bci", adj, u) - u.sum(axis=3)
    f -= f.sum(axis=2, keepdims=True) / f.shape[2]
    extent = (f.max(axis=2) - f.min(axis=2)).max(axis=1)
    # A layout whose extent is 0 stays as it is: x / 1.0 is exactly x.
    f /= np.where(extent > 0.0, extent, 1.0)[:, None, None]
    return f


def snb_step(g: Graph, prev: Layout, magnitude_prev: float, p: SnbParams) -> Layout:
    """Advance one iteration using the previous iteration's magnitude M(t-1):
    the run's own step, bit for bit while log(`magnitude_prev`) is the run's
    log M(t-1), which fails at M(t-1) = inf (a user-given tiny s) and at t = 1
    for the 0.2% of edge counts m where log(1/m) != -log m.  A coordinate of
    -0.0 in `prev` is read as +0.0 (see `layout.pair_directions`)."""
    _require_schedulable(g)
    if len(prev) != g.n:
        raise ValueError("layout size does not match vertex count")
    if not magnitude_prev > 0.0:
        raise ValueError("magnitude_prev must be positive")
    pos = np.ascontiguousarray(prev.coords.T)[None]
    u, _ = pair_directions(pos, prev.iteration, PairWorkspace(g.n, (p.seed,)))
    out = _step(u, _adjacency_matrix(g), math.log(g.m), math.log(magnitude_prev))
    return Layout(out[0].T, prev.iteration + 1)


def snb_run(
    g: Graph,
    params: SnbParams | None = None,
    *,
    seeds=None,
    capture_every: int = 0,
) -> RunRecord | list[RunRecord]:
    """Full Sync-and-Burst run: total_multiplier*n steps from a seeded random layout.

    Deterministic given (g, params).  Per the pseudocode convention, the
    step at iteration t uses M(t-1), starting from M(0) = 1/m, and hashes
    coincident pairs with index t-1.  The layout at the end of the sync
    phase is kept; with `capture_every` = k > 0 so is every k-th layout.
    Returns the RunRecord of seed `params.seed`.  With `seeds`, runs those
    seeds instead (`params.seed` must then be left at 0) in the batches
    `layout.iterate` sizes: the schedule and the sync length do not depend
    on the seed, and each seed's record is bitwise what its own run gives.
    Returns their records, in order.
    """
    _require_schedulable(g)
    if params is None:
        params = SnbParams(sync_param=compute_sync_param(g))
    log_m = math.log(g.m)
    adj = _adjacency_matrix(g)

    def positions(pos, ws):
        log_mag_prev = -log_m  # M(0) = 1/m
        for t in range(1, params.total_multiplier * g.n + 1):
            u, _ = pair_directions(pos, t - 1, ws)
            pos = _step(u, adj, log_m, log_mag_prev)
            yield pos
            log_mag_prev = log_magnitude(t, g, params)

    records = iterate(
        g, "snb", batch_seeds(params.seed, seeds), positions,
        capture_every=capture_every,
        sync_end=sync_phase_iterations(g, params),
    )
    return records[0] if seeds is None else records
