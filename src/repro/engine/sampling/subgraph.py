"""Subgraph-batch sampling: the paper's partitioning strategies as a
sampling phase.

Reuses :mod:`repro.core.strategies` (Fig. 6) to build edge batches, then
links a *prefix* of them — the sampled subgraph — leaving the remaining
edges to the finish phase.  Because Afforest's subgraph-processing
property (Sec. III-B) makes any link order correct, processing only the
first batches and handing π to an arbitrary finish is sound; the choice
of strategy controls how quickly linkage converges per edge processed.
"""

from __future__ import annotations

from repro.core.strategies import STRATEGIES, SubgraphBatch
from repro.engine.phase import PlanContext, SamplingSpec
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.obs import phase_label

__all__ = ["SUBGRAPH", "subgraph_sampling"]


def _validate(
    *,
    strategy: str = "uniform",
    num_batches: int = 8,
    batches: int = 2,
) -> None:
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown strategy {strategy!r}; available: {sorted(STRATEGIES)}"
        )
    if num_batches < 1:
        raise ConfigurationError(
            f"num_batches must be >= 1, got {num_batches}"
        )
    if batches < 1:
        raise ConfigurationError(f"batches must be >= 1, got {batches}")


def _build_batches(
    ctx: PlanContext, graph: CSRGraph, strategy: str, num_batches: int
) -> list[SubgraphBatch]:
    if strategy == "uniform":
        return STRATEGIES["uniform"](graph, num_batches, seed=ctx.rng)
    if strategy == "neighbor":
        # rounds=num_batches yields num_batches round batches plus the
        # remainder; the prefix below never reaches the remainder.
        return STRATEGIES["neighbor"](graph, rounds=num_batches)
    if strategy == "optimal":
        return STRATEGIES["optimal"](graph)
    return STRATEGIES["row"](graph, num_batches)


def subgraph_sampling(
    ctx: PlanContext,
    *,
    strategy: str = "uniform",
    num_batches: int = 8,
    batches: int = 2,
) -> None:
    """Link the first ``batches`` of ``num_batches`` strategy batches
    (phases ``SG<i>``), then compress (``SC``)."""
    _validate(strategy=strategy, num_batches=num_batches, batches=batches)
    backend, pi, result = ctx.backend, ctx.pi, ctx.result
    prefix = _build_batches(ctx, ctx.graph, strategy, num_batches)[:batches]
    for i, batch in enumerate(prefix, 1):
        if batch.num_edges == 0:
            continue
        phase = phase_label("SG", round=i, batch=batch.name)
        result.edges_sampled += batch.num_edges
        rounds = backend.link_edges(pi, batch.src, batch.dst, phase=phase)
        if rounds is not None:
            result.link_rounds.append(rounds)
        backend.beat(phase)
    passes = backend.compress(pi, phase=phase_label("SC"))
    if passes is not None:
        result.compress_passes.append(passes)


SUBGRAPH = SamplingSpec(
    name="subgraph",
    fn=subgraph_sampling,
    description="paper-style subgraph batches (core.strategies): link a "
    "prefix of row/uniform/neighbor/optimal batches",
    params=("strategy", "num_batches", "batches"),
    validate=_validate,
)
