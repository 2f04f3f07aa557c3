"""Subgraph extraction: induced subgraphs, edge filters, component splits.

The downstream pattern the paper's introduction motivates — "CC as the
entry point for many computations" — is extracting each (or the giant)
component and running further analytics on it; these helpers close that
loop.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import ConfigurationError
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList
from repro.graph.csr import CSRGraph
from repro.nputil import sorted_unique

__all__ = [
    "induced_subgraph",
    "filter_edges",
    "component_subgraph",
    "largest_component_subgraph",
    "split_components",
]


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """The subgraph induced by ``vertices``, with compacted ids.

    Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original
    id of the subgraph's vertex ``i``.  Duplicate entries in ``vertices``
    are rejected.
    """
    vertices = np.ascontiguousarray(vertices, dtype=VERTEX_DTYPE)
    if vertices.size and (
        vertices.min() < 0 or vertices.max() >= graph.num_vertices
    ):
        raise ConfigurationError("vertex id out of range")
    if sorted_unique(vertices).shape[0] != vertices.shape[0]:
        raise ConfigurationError("vertex list contains duplicates")
    n_sub = int(vertices.shape[0])
    # Old id -> new id (or -1 when excluded).
    back = np.full(graph.num_vertices, -1, dtype=VERTEX_DTYPE)
    back[vertices] = np.arange(n_sub, dtype=VERTEX_DTYPE)

    src, dst = graph.undirected_edge_array()
    keep = (back[src] >= 0) & (back[dst] >= 0)
    el = EdgeList(n_sub, back[src[keep]], back[dst[keep]])
    return build_csr(el), vertices.copy()


def filter_edges(graph: CSRGraph, keep: np.ndarray) -> CSRGraph:
    """Drop undirected edges where ``keep`` is False.

    ``keep`` is indexed parallel to ``graph.undirected_edge_array()``.
    The vertex set (including newly isolated vertices) is preserved.
    """
    src, dst = graph.undirected_edge_array()
    keep = np.asarray(keep, dtype=bool)
    if keep.shape[0] != src.shape[0]:
        raise ConfigurationError(
            f"keep mask has {keep.shape[0]} entries for {src.shape[0]} edges"
        )
    return build_csr(EdgeList(graph.num_vertices, src[keep], dst[keep]))


def component_subgraph(
    graph: CSRGraph, labels: np.ndarray, label: int
) -> tuple[CSRGraph, np.ndarray]:
    """The induced subgraph of one component (by its label)."""
    labels = np.asarray(labels)
    if labels.shape[0] != graph.num_vertices:
        raise ConfigurationError("labels length must equal num_vertices")
    members = np.nonzero(labels == label)[0].astype(VERTEX_DTYPE)
    if members.size == 0:
        raise ConfigurationError(f"no vertices carry label {label}")
    return induced_subgraph(graph, members)


def largest_component_subgraph(
    graph: CSRGraph, labels: np.ndarray | None = None
) -> tuple[CSRGraph, np.ndarray]:
    """The induced subgraph of the largest component.

    Computes the labeling with Afforest when not supplied.
    """
    if labels is None:
        from repro.core.afforest import afforest

        labels = afforest(graph).labels
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=graph.num_vertices)
    return component_subgraph(graph, labels, int(np.argmax(counts)))


def split_components(
    graph: CSRGraph, labels: np.ndarray | None = None, *, min_size: int = 1
) -> list[tuple[CSRGraph, np.ndarray]]:
    """All components as separate compacted subgraphs, largest first.

    ``min_size`` filters out small components (e.g. singletons).
    """
    if labels is None:
        from repro.core.afforest import afforest

        labels = afforest(graph).labels
    labels = np.asarray(labels)
    uniq, counts = sorted_unique(labels, return_counts=True)
    order = np.argsort(counts)[::-1]
    out = []
    for idx in order:
        if counts[idx] < min_size:
            continue
        out.append(component_subgraph(graph, labels, int(uniq[idx])))
    return out
