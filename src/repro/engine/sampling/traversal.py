"""Traversal-flavoured sampling phases: BFS from sampled roots and
LDD-style simultaneous ball growing.

Both phases push min-labels out of a seed set through the backends'
``frontier_expand`` primitive for a bounded number of rounds, then
compress.  Every push is a monotone min-write over component-internal
vertex ids, so the resulting π is a valid decreasing-pointer forest any
finish phase can take over — the ConnectIt recipe of pairing a partial
traversal with an arbitrary finish.

- **BFS sampling** seeds from the highest-degree vertex plus a handful of
  random roots: a few rounds collapse the dense core of a power-law
  graph, leaving the periphery for the finish phase.
- **LDD sampling** seeds ``β·n`` random centers growing simultaneously —
  the low-diameter-decomposition idiom: overlapping balls resolve by
  min-label, fragmenting the graph into clusters whose stitching is left
  to the finish phase.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.engine.phase import PlanContext, SamplingSpec
from repro.errors import ConfigurationError
from repro.nputil import sorted_unique
from repro.obs import phase_label

__all__ = ["BFS_SAMPLING", "LDD", "bfs_sampling", "ldd_sampling"]


def _expand_rounds(
    ctx: PlanContext, frontier: np.ndarray, rounds: int, base: str
) -> None:
    """Run up to ``rounds`` frontier expansions, then one compress (SC)."""
    backend, pi, graph = ctx.backend, ctx.pi, ctx.graph
    indptr = graph.indptr
    for i in range(1, rounds + 1):
        if frontier.size == 0:
            break
        total = int((indptr[frontier + 1] - indptr[frontier]).sum())
        if total == 0:
            break
        ctx.result.edges_sampled += total
        phase = phase_label(base, round=i, frontier=int(frontier.shape[0]))
        backend.record_frontier(int(frontier.shape[0]), phase=phase)
        frontier = backend.frontier_expand(pi, graph, frontier, phase=phase)
        backend.beat(phase, frontier=int(frontier.shape[0]))
    passes = backend.compress(pi, phase=phase_label("SC"))
    if passes is not None:
        ctx.result.compress_passes.append(passes)


def _validate_bfs(*, rounds: int = 3, roots: int = 32) -> None:
    if rounds < 0:
        raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
    if roots < 1:
        raise ConfigurationError(f"roots must be >= 1, got {roots}")


def bfs_sampling(ctx: PlanContext, *, rounds: int = 3, roots: int = 32) -> None:
    """Bounded BFS label push from sampled roots (phases ``SB<i>``).

    The seed set is the maximum-degree vertex (the giant component's core
    with overwhelming probability on skewed graphs) plus ``roots - 1``
    uniform random vertices, so small components also get coverage.
    """
    _validate_bfs(rounds=rounds, roots=roots)
    n = ctx.graph.num_vertices
    deg = np.asarray(ctx.graph.degree())
    k = min(roots, n)
    seeds = ctx.rng.choice(n, size=k, replace=False)
    seeds[0] = int(np.argmax(deg))
    frontier = sorted_unique(seeds).astype(VERTEX_DTYPE, copy=False)
    _expand_rounds(ctx, frontier, rounds, "SB")


def _validate_ldd(*, beta: float = 0.2, rounds: int = 2) -> None:
    if not 0.0 < beta <= 1.0:
        raise ConfigurationError(f"beta must be in (0, 1], got {beta}")
    if rounds < 0:
        raise ConfigurationError(f"rounds must be >= 0, got {rounds}")


def ldd_sampling(
    ctx: PlanContext, *, beta: float = 0.2, rounds: int = 2
) -> None:
    """LDD-style cluster sampling (phases ``SL<i>``): grow balls of radius
    ``rounds`` around ``β·n`` random centers simultaneously."""
    _validate_ldd(beta=beta, rounds=rounds)
    n = ctx.graph.num_vertices
    centers = max(1, int(beta * n))
    frontier = np.sort(
        ctx.rng.choice(n, size=min(centers, n), replace=False)
    ).astype(VERTEX_DTYPE)
    _expand_rounds(ctx, frontier, rounds, "SL")


BFS_SAMPLING = SamplingSpec(
    name="bfs",
    fn=bfs_sampling,
    description="bounded BFS min-label push from sampled roots "
    "(max-degree vertex + random roots)",
    params=("rounds", "roots"),
    validate=_validate_bfs,
)

LDD = SamplingSpec(
    name="ldd",
    fn=ldd_sampling,
    description="LDD-style cluster sampling: simultaneous ball growing "
    "from beta*n random centers",
    params=("beta", "rounds"),
    validate=_validate_ldd,
)
