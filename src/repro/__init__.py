"""repro — Afforest: parallel graph connectivity via subgraph sampling.

A complete Python reproduction of Sutton, Ben-Nun & Barak, *Optimizing
Parallel Graph Connectivity Computation via Subgraph Sampling* (IPDPS
2018): the Afforest algorithm, the baselines it is evaluated against
(Shiloach–Vishkin, label propagation, BFS-CC, direction-optimizing
BFS-CC), the graph substrate, synthetic dataset proxies, a simulated
parallel machine for work/span and memory-trace analysis, and the full
benchmark harness for every table and figure of the paper's evaluation.

Quickstart::

    import repro

    g = repro.generators.kronecker_graph(scale=14)
    labels = repro.connected_components(g)            # Afforest
    result = repro.engine.run("afforest", g, neighbor_rounds=2)  # detailed
    print(result.num_components, result.skip_fraction)
"""

from __future__ import annotations

import numpy as np

from repro import (
    analysis,
    core,
    distributed,
    engine,
    generators,
    graph,
    parallel,
)
from repro.engine import CCResult
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    GraphFormatError,
    InvariantViolationError,
    ReproError,
)
from repro.graph import CSRGraph, GraphBuilder, from_edge_array, from_edge_list
from repro.unionfind import ParentArray, sequential_components

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "GraphBuilder",
    "from_edge_array",
    "from_edge_list",
    "ParentArray",
    "CCResult",
    "connected_components",
    "sequential_components",
    "ReproError",
    "GraphFormatError",
    "InvariantViolationError",
    "ConfigurationError",
    "ConvergenceError",
    "analysis",
    "core",
    "distributed",
    "engine",
    "generators",
    "graph",
    "parallel",
]


def connected_components(
    graph: CSRGraph,
    algorithm: str = "afforest",
    **kwargs,
) -> np.ndarray:
    """Component labels of ``graph`` using the named algorithm.

    Every algorithm returns an equivalent labeling (same partition of the
    vertex set); label *values* differ by algorithm.  Names are resolved
    through the engine's algorithm registry —
    ``repro.engine.available_algorithms()`` lists them, and unknown names
    raise :class:`~repro.errors.ConfigurationError`.  Keyword arguments
    override the algorithm's registered defaults; for the full result
    record (counters, phase times, provenance) call
    :func:`repro.engine.run` directly.
    """
    return engine.run(algorithm, graph, **kwargs).labels
