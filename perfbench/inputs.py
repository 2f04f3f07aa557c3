"""Workload inputs: edge draws and CSR construction, timed apart.

Each graph class draws its edges with the generator's own edge function
and the same random stream as the library's dataset registry, then builds
the CSR with ``build_csr``.  :func:`same_csr` confirms that the result is
bit-identical to ``load_dataset(name, tier, seed=seed)``, so a figure is
always tied to the exact graph the registry names.

Every run uses the registry's graph at :data:`DATASET_SEED`, the way a
benchmark suite ships fixed graph files; the run's own seed drives the
serving request stream.  Graph structure shifts with the generation seed
more than the run-to-run noise does: over R-MAT seeds 101-110 at 2^18 on
a 2-vCPU Xeon VM, ``fastsv`` needs 4 to 6 rounds and takes 480 to 690
ms, a quartile spread of a fifth of the median from the input alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.generators.datasets import SIZE_TIERS
from repro.generators.kronecker import kronecker_edges
from repro.generators.lattice import grid_edges
from repro.graph.coo import EdgeList
from repro.graph.csr import CSRGraph

EdgeDraw = Callable[[str, int], EdgeList]

#: Generation seed of every workload graph: ``load_dataset``'s default.
DATASET_SEED = 42


def kron_edges(tier: str, seed: int) -> EdgeList:
    """The ``kron`` proxy's edge records (R-MAT, edge factor 16)."""
    scale = SIZE_TIERS[tier]
    rng = np.random.default_rng(seed)
    n = 1 << scale
    src, dst = kronecker_edges(scale, int(round(16.0 * n)), rng=rng)
    perm = rng.permutation(n).astype(VERTEX_DTYPE)
    return EdgeList(n, src, dst).relabeled(perm, n)


def grid_proxy_edges(drop: float, highway: float) -> EdgeDraw:
    """Edge records of a perturbed-grid proxy (``road``, ``osm-eur``)."""

    def draw(tier: str, seed: int) -> EdgeList:
        side = int(round(2 ** (SIZE_TIERS[tier] / 2)))
        rng = np.random.default_rng(seed)
        base = grid_edges(side, side)
        n = base.num_vertices
        keep = rng.random(base.num_edges) >= drop
        src, dst = base.src[keep], base.dst[keep]
        extra = int(round(highway * n))
        if extra:
            src = np.concatenate(
                [src, rng.integers(0, n, size=extra, dtype=VERTEX_DTYPE)]
            )
            dst = np.concatenate(
                [dst, rng.integers(0, n, size=extra, dtype=VERTEX_DTYPE)]
            )
        return EdgeList(n, src, dst)

    return draw


#: dataset name -> edge draw with the registry's parameters.
EDGE_DRAWS: dict[str, EdgeDraw] = {
    "kron": kron_edges,
    "road": grid_proxy_edges(drop=0.05, highway=0.0005),
    "osm-eur": grid_proxy_edges(drop=0.12, highway=0.0),
}


def same_csr(a: CSRGraph, b: CSRGraph) -> bool:
    """Bit-identity of two CSR graphs (arrays, dtypes and sizes)."""
    return all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices))
    )


def input_counts(edges: EdgeList, graph: CSRGraph) -> dict[str, float]:
    """Work counts of CSR construction, computed from the array sizes."""
    records = edges.num_edges
    loops = int(np.count_nonzero(edges.src == edges.dst))
    # build_csr drops self loops, then stores both orientations.
    symmetrized = 2 * (records - loops)
    out = graph.num_directed_edges
    return {
        "graph.records_in": records,
        "graph.edges_out": out,
        "graph.dedup_kept_frac": out / symmetrized if symmetrized else 1.0,
        "graph.csr_bytes": graph.indptr.nbytes + graph.indices.nbytes,
    }
