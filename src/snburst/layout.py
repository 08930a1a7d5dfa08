"""Layout container, run record, seeded start, normalization, and what both
algorithms share: the run loop (`iterate`, owner of the workspaces), the
pairwise kernel (`pair_directions`) and the flat edge index (`edge_pairs`).

`iterate` advances a run's seeds in batches of B seeds of one graph, each a
(B, 2, n) position array, so each numpy call's fixed cost is paid once per
iteration, not once per seed; a single-seed run is the B = 1 case.  Both
algorithms' schedules depend on the graph and the iteration only, so a
batch's seeds run in lockstep, and each seed's layouts are bitwise what its
own run gives.  `PAIR_BLOCK` sizes the batches here and nowhere else; the
metrics read it for their distance row blocks, and the kernel for the row
blocks of its one matrix product, which gives the coordinate differences
with the bits of the plain subtraction (see `pair_directions`)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

# The run errors are defined in `graphs` and importable from here as well.
from .graphs import DegenerateGraphError, DegenerateLayoutError, Graph, NumericError
from .rng import SplitMix64, hash_angle

if TYPE_CHECKING:
    from .metrics import MetricsReport


@dataclass(frozen=True)
class Layout:
    """Per-vertex 2D coordinates at one iteration.

    `coords` is an (n, 2) float64 array, copied and frozen on construction.
    All coordinates must be finite.
    """

    coords: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        arr = np.array(self.coords, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"coords must be (n, 2), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite coordinate in layout")
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    def __len__(self) -> int:
        return self.coords.shape[0]


def initial_layout(g: Graph, seed: int) -> Layout:
    """Uniform i.i.d. positions in the unit square from a splitmix64 stream:
    the start of both SnB and FR."""
    rng = SplitMix64(seed)
    coords = np.array([[rng.next_float(), rng.next_float()] for _ in range(g.n)])
    return Layout(coords, 0)


def normalize_layout(layout: Layout) -> Layout:
    """Scale and translate so the larger bounding-box side spans [0, 1].

    Aspect ratio is preserved; applied before rendering and before metrics.
    Idempotent for already-normalized layouts.
    """
    lo = layout.coords.min(axis=0)
    hi = layout.coords.max(axis=0)
    side = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    if side == 0.0:
        raise DegenerateLayoutError("all vertices coincide")
    return Layout((layout.coords - lo) / side, layout.iteration)


@dataclass
class RunRecord:
    """One algorithm run: identity, timing, final layout and metrics."""

    algorithm: str  # "snb" or "fr"
    seed: int
    n: int
    m: int
    iterations: int
    wall_time_total: float
    wall_time_per_iteration: float
    final_layout: Layout
    graph_id: str = ""  # the graph's corpus label; `bench.run_batch` sets it
    metrics: Optional["MetricsReport"] = None
    # Layout captured at the end of the sync phase (SnB only).
    sync_end_layout: Optional[Layout] = None
    # Sampled (iteration, Layout) pairs when trajectory capture is on.
    trajectory: list = field(default_factory=list)


def batch_seeds(seed: int, seeds) -> tuple:
    """The seeds a run of `snb_run` or `fr_run` advances: its params' one
    `seed` when `seeds` is None, else `seeds`.  A params seed other than the
    default 0 beside `seeds` would name the run's seed twice: ValueError."""
    if seeds is None:
        return (seed,)
    if seed != 0:
        raise ValueError(f"give the seeds as params.seed or as seeds=, not both (params.seed={seed})")
    return tuple(seeds)


def iterate(
    g: Graph,
    algorithm: str,
    seeds,
    positions,
    *,
    capture_every: int = 0,
    sync_end: int = 0,
) -> list[RunRecord]:
    """Run one layout algorithm from `initial_layout(g, seed)` for each of
    the sequence `seeds`, in consecutive batches of max(1, PAIR_BLOCK // n^2)
    seeds, and record each seed's run.

    For a batch of B seeds, `positions(start, ws)` is the algorithm's own
    iteration: a generator that takes the starts as a C-contiguous (B, 2, n)
    array, row k holding the x and y rows of the batch's seed k, and the
    batch's `PairWorkspace`, and yields the (B, 2, n) positions after
    iterations 1, 2, ...; the number of yields is the iteration count.  Every
    iterate must be finite (else `NumericError`, naming the seeds whose rows
    are not).  The layout after iteration `sync_end` (0: none) and every
    `capture_every`-th one (0: none) are kept per seed.  Only the loop is
    timed: a batch's starts and workspace are made before its clock.
    Returns one record per seed, in order, with its batch's loop time / B.
    """
    per_batch = max(1, PAIR_BLOCK // (g.n * g.n))
    records = []
    for first in range(0, len(seeds), per_batch):
        batch = seeds[first:first + per_batch]
        pos = np.stack([initial_layout(g, seed).coords.T for seed in batch])
        # Only the generator holds the workspace, and a finished generator
        # lets go of it: the next batch's is made after this one's is freed.
        steps = positions(pos, PairWorkspace(g.n, batch))
        sync_layouts = [None] * len(batch)
        trajectories = [[] for _ in batch]
        start = time.perf_counter()
        for t, pos in enumerate(steps, start=1):
            if not np.isfinite(pos).all():
                bad = [seed for seed, row in zip(batch, pos) if not np.isfinite(row).all()]
                raise NumericError(
                    f"non-finite coordinates at {algorithm} iteration {t} for seed(s) {bad}"
                )
            if t == sync_end:
                sync_layouts = [Layout(row.T, t) for row in pos]
            if capture_every and t % capture_every == 0:
                for trajectory, row in zip(trajectories, pos):
                    trajectory.append((t, Layout(row.T, t)))
        elapsed = (time.perf_counter() - start) / len(batch)
        records += [
            RunRecord(
                algorithm=algorithm,
                seed=seed,
                n=g.n,
                m=g.m,
                iterations=t,
                wall_time_total=elapsed,
                wall_time_per_iteration=elapsed / t,
                final_layout=Layout(row.T, t),
                sync_end_layout=sync_layout,
                trajectory=trajectory,
            )
            for seed, row, sync_layout, trajectory in zip(batch, pos, sync_layouts, trajectories)
        ]
    return records


# Pair entries (seeds x vertex pairs) one kernel call may cover: `iterate`
# runs seeds in batches of max(1, PAIR_BLOCK // n^2), so a workspace's
# n x n arrays stay within 32 * PAIR_BLOCK bytes (1.5 MiB) unless one seed
# needs more.  Set from timed SnB and FR runs (README, "The pairwise
# kernel"), at B = 1-4 and n = 100-256 on the earlier kernel that copied
# rows and subtracted them, and again at B = 1-3 and n = 100-181 on the
# difference product: on both, batches of up to about this many pair
# entries ran faster per seed than one seed at a time or level with it,
# and larger ones ran slower.
# `metrics._nearest_vertex_distances` takes its distance rows, and
# `PairWorkspace` the rows of the kernel's difference product, in blocks of
# max(1, PAIR_BLOCK // n) vertices under the same budget.
PAIR_BLOCK = 3 << 14


class PairWorkspace:
    """The arrays `pair_directions` writes into, for the batch of `seeds`
    (row k's start and hash seed); `iterate` makes one per batch.

    For B seeds of n vertices it holds 4 B n^2 float64 values (32 B n^2
    bytes): `u`, the (B, 2, n, n) coordinate differences that are divided in
    place into unit directions; `d`, the (B, n, n) distances; and `scratch`,
    a (B, n, n) array the kernel uses during a call and leaves to the caller
    between calls (FR builds its force coefficients there).  `d_diagonal`
    and `scratch_diagonal` are writable (B, n) views of the diagonals.
    `left` (B, 2, n, 2) and `right` (B, 2, 2, n), 8 B n values more, are the
    operands whose product is `u`: column 0 of `left` and row 1 of `right`
    hold 1.0 from here on, and each call writes the positions into the other
    halves.  `blocks` pairs views of the same row block of `left` and `u`,
    max(1, PAIR_BLOCK // n) rows each, so one block while n^2 <= PAIR_BLOCK:
    a block's product stays under the size at which OpenBLAS splits a dgemm
    across threads, which on a busy shared machine waits on the other core.
    `coincident` tells whether the last call took the coincident-pair path.
    """

    def __init__(self, n: int, seeds):
        self.seeds = tuple(seeds)
        b = len(self.seeds)
        self.left = np.ones((b, 2, n, 2))
        self.right = np.ones((b, 2, 2, n))
        self.u = np.empty((b, 2, n, n))
        rows = max(1, PAIR_BLOCK // n)
        self.blocks = [
            (self.left[:, :, r:r + rows], self.u[:, :, r:r + rows]) for r in range(0, n, rows)
        ]
        self.d = np.empty((b, n, n))
        self.scratch = np.empty((b, n, n))
        self.d_diagonal = self.d.reshape(b, -1)[:, :: n + 1]
        self.scratch_diagonal = self.scratch.reshape(b, -1)[:, :: n + 1]
        self.coincident = False


def edge_pairs(g: Graph) -> np.ndarray:
    """Flat indices into a row-major n x n array of (u, v), then (v, u), for
    every edge: 2m indices, distinct as `Graph` has no loops or repeats."""
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    return np.concatenate((ends[0] * g.n + ends[1], ends[1] * g.n + ends[0]))


def pair_directions(pos: np.ndarray, iteration: int, ws: PairWorkspace):
    """Unit directions and distances between all vertex pairs of B layouts.

    `pos` is a C-contiguous (B, 2, n) array; row k holds the x and y rows of
    layout k, which was started from `ws.seeds[k]`.  Returns `(u, d)`: `u` is
    (B, 2, n, n) and `u[k, :, i, j]` the unit direction from vertex i to
    vertex j in layout k, zero on the diagonal; `d` is the (B, n, n) distance
    matrix with a diagonal of 1.  Both are `ws.u` and `ws.d`, overwritten by
    the next call on `ws`.  A coincident pair keeps d == 0 and gets the
    deterministic direction hash_angle(ws.seeds[k], iteration, i, j) for i < j,
    negated for (j, i), so the two contributions stay exactly opposite.
    sqrt of the exact sum of squares (not hypot) keeps u bitwise invariant
    under exact power-of-two rescaling of the input.  Every entry depends on
    its own layout only, so a layout gives the same bits in any batch.  The
    kernel reads a coordinate of -0.0 as +0.0: its bytes are those of
    `pos + 0.0`.
    """
    u, d, scratch = ws.u, ws.d, ws.scratch
    # u[k, c, i, j] = pos[k, c, j] - pos[k, c, i] as the product of the
    # (n, 2) rows [1, -x_i] and the (2, n) columns [x_j, 1]: both products
    # are exact and the sum starts from +0, so any BLAS summation order or
    # FMA gives the rounded difference, the subtraction's own bits, except
    # that the product never gives -0.0.
    np.negative(pos, out=ws.left[..., 1])
    ws.right[:, :, 0, :] = pos
    for left, out in ws.blocks:
        np.matmul(left, ws.right, out=out)
    np.square(u[:, 0], out=scratch)
    np.square(u[:, 1], out=d)
    np.add(scratch, d, out=d)
    np.sqrt(d, out=d)
    ws.d_diagonal[...] = 1.0
    ws.coincident = not d.min() > 0.0
    if not ws.coincident:
        np.divide(u, d[:, None], out=u)
        return u, d
    coincident = d == 0.0
    np.copyto(scratch, d)
    scratch[coincident] = 1.0
    np.divide(u, scratch[:, None], out=u)
    for k, i, j in zip(*np.nonzero(np.triu(coincident))):
        theta = hash_angle(ws.seeds[k], iteration, int(i), int(j))
        u[k, :, i, j] = math.cos(theta), math.sin(theta)
        u[k, :, j, i] = -u[k, :, i, j]
    return u, d
