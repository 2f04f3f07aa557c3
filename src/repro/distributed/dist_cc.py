"""Distributed connected components — deprecated shim.

The original module implemented a standalone forest-reduction algorithm
(rank-local Afforest, binary-tree merge, broadcast).  That algorithm has
been superseded by the engine's first-class distributed substrate:
:class:`repro.engine.backends.DistributedBackend` runs every composed
sampling × finish plan as BSP supersteps that exchange only changed-label
deltas — strictly less traffic than shipping whole parent arrays up a
reduction tree (see ``docs/distributed.md``).

:func:`distributed_components` survives as a thin deprecated shim over
``engine.run(backend=DistributedBackend(...))`` so existing callers keep
working; prefer the engine call in new code::

    from repro import engine
    from repro.engine.backends import DistributedBackend

    result = engine.run(g, plan="none+fastsv",
                        backend=DistributedBackend(ranks=4))

:func:`merge_forest` — the subgraph-property merge at the heart of the old
reduction (a parent array *is* a connectivity-preserving subgraph of the
edges that built it) — is kept as a documented standalone primitive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.core.compress import compress_all
from repro.core.link import link_batch
from repro.distributed.comm import CommStats, SimulatedComm
from repro.distributed.partition import (
    partition_edges_block,
    partition_edges_hash,
)
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.nputil import sorted_unique


@dataclass
class DistCCResult:
    """Outcome of a distributed CC run.

    ``merge_rounds`` historically counted binary-tree reduction rounds;
    under the delta-exchange substrate it reports the number of
    communicator supersteps the solve used (0 on a single rank).
    """

    labels: np.ndarray
    num_ranks: int
    comm_stats: CommStats
    local_edges_per_rank: list[int]
    merge_rounds: int

    @property
    def num_components(self) -> int:
        return int(sorted_unique(self.labels).shape[0])

    @property
    def bytes_per_vertex(self) -> float:
        """Total traffic normalised by |V|."""
        n = self.labels.shape[0]
        return self.comm_stats.bytes_sent / n if n else 0.0


def merge_forest(pi: np.ndarray, incoming: np.ndarray) -> None:
    """Merge another rank's parent forest into ``pi`` in place.

    The incoming array is interpreted as the edge set
    ``{(v, incoming[v]) : v}`` — a connectivity-preserving subgraph of the
    edges the sender processed — and linked like any other subgraph.
    """
    if incoming.shape != pi.shape:
        raise ConfigurationError("forest arrays must have equal length")
    verts = np.arange(pi.shape[0], dtype=VERTEX_DTYPE)
    link_batch(pi, verts, incoming.astype(VERTEX_DTYPE))
    compress_all(pi)


def distributed_components(
    graph: CSRGraph,
    num_ranks: int = 4,
    *,
    partitioner=partition_edges_hash,
    comm: SimulatedComm | None = None,
) -> DistCCResult:
    """Exact CC labels computed across ``num_ranks`` simulated ranks.

    .. deprecated:: 1.3
        Thin shim over
        ``engine.run(backend=DistributedBackend(ranks=num_ranks))``;
        prefer the engine call in new code — it exposes the full plan
        space, telemetry, and the run ledger.

    Parameters
    ----------
    graph:
        The input graph (vertex set replicated; edges partitioned).
    num_ranks:
        World size ``R``.
    partitioner:
        ``partition_edges_block`` selects contiguous block sharding,
        anything else (the default hash partitioner) hashed sharding;
        also used to report the legacy per-rank undirected edge counts.
    comm:
        Optionally supply a communicator (e.g. to share accounting across
        several runs); a fresh one is created otherwise.
    """
    warnings.warn(
        "distributed_components() is deprecated; use "
        "engine.run(backend=DistributedBackend(ranks=...)) instead",
        DeprecationWarning,
        stacklevel=2,
    )
    # Imported lazily: the engine imports this package for the backend's
    # comm/partition helpers, so a module-level import would be circular.
    from repro import engine
    from repro.engine.backends import DistributedBackend

    mode = "block" if partitioner is partition_edges_block else "hash"
    backend = DistributedBackend(ranks=num_ranks, partition=mode, comm=comm)
    parts = partitioner(graph, num_ranks)
    if len(parts) != num_ranks:
        raise ConfigurationError(
            f"partitioner returned {len(parts)} shards for {num_ranks} ranks"
        )
    local_edges = [int(src.shape[0]) for src, _ in parts]
    steps_before = backend.comm.stats.supersteps
    result = engine.run(graph, plan="none+fastsv", backend=backend)
    return DistCCResult(
        labels=result.labels,
        num_ranks=num_ranks,
        comm_stats=backend.comm.stats,
        local_edges_per_rank=local_edges,
        merge_rounds=backend.comm.stats.supersteps - steps_before,
    )
