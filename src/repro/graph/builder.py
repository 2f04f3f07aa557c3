"""Construction of :class:`~repro.graph.csr.CSRGraph` from edge data.

The builders perform the normalisation pipeline the GAP suite applies when
loading graphs: symmetrize, optionally drop duplicates and self loops, then
assemble the CSR.  Each directed record is packed into one int64 key
``src * n + dst`` (both orientations when symmetrizing), the keys are
sorted once, adjacent duplicates are masked out, and ``divmod`` splits the
keys back into row ids (whose ``bincount`` gives ``indptr``) and
neighbours.  Neighbour lists are sorted by default, which both matches
GAP's loader and makes ``has_edge`` logarithmic.

A note relevant to the paper: Afforest's neighbour sampling uses "the first
appearing neighbors of each vertex" (Sec. VI-A), i.e. the neighbour order in
the CSR structure is semantically meaningful for sampling quality.  Builders
therefore support ``sort_neighbors=False`` to preserve insertion order, and
:func:`repro.core.strategies` exposes explicit neighbour-order shuffles.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError
from repro.graph.coo import EdgeList, packed_key_base
from repro.graph.csr import CSRGraph
from repro.nputil import run_starts, sorted_unique


def build_csr(
    edges: EdgeList,
    *,
    symmetrize: bool = True,
    dedup: bool = True,
    drop_self_loops: bool = True,
    sort_neighbors: bool = True,
) -> CSRGraph:
    """Assemble a CSR graph from an edge list.

    Parameters
    ----------
    edges:
        Input edge records (any orientation, duplicates allowed).
    symmetrize:
        Store both orientations of every edge (default).  Required by every
        algorithm in this library; disable only for layout experiments.
    dedup:
        Drop parallel edges after symmetrization.
    drop_self_loops:
        Remove ``(v, v)`` records.
    sort_neighbors:
        Sort each neighbour list ascending.  Disable to preserve the input
        edge order within each list (relevant for neighbour sampling).
    """
    n = edges.num_vertices
    base = packed_key_base(n)
    src, dst = edges.src, edges.dst
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    keys = _pack(src, dst, base, symmetrize)
    if sort_neighbors:
        return csr_from_edge_keys(keys, n, dedup=dedup)
    if dedup:
        # First occurrences, back in record order.
        _, first = sorted_unique(keys, return_index=True)
        first.sort()
        keys = keys[first]
    # A stable sort by row keeps each row's records in input order.
    keys = keys[np.argsort(keys // base, kind="stable")]
    return _assemble(keys, n, base)


def csr_from_edge_keys(
    keys: np.ndarray, num_vertices: int, *, dedup: bool = True
) -> CSRGraph:
    """Sorted-neighbour CSR from packed edge keys ``src * n + dst``.

    ``keys`` (int64, any order) is sorted in place; ``dedup`` then drops
    repeated keys.  Shared by :func:`build_csr` and the out-of-core
    :func:`~repro.graph.io.build_csr_streaming` compaction.
    """
    keys.sort()
    if dedup:
        keys = keys[run_starts(keys)]
    return _assemble(keys, num_vertices, packed_key_base(num_vertices))


def _pack(
    src: np.ndarray, dst: np.ndarray, base: np.int64, symmetrize: bool
) -> np.ndarray:
    """Packed keys of the records, then of their mirrors when
    ``symmetrize`` (self loops stay single: a mirrored loop would count
    twice in the degree)."""
    m = src.shape[0]
    if symmetrize:
        mirror = src != dst
        if not mirror.all():
            src_rev, dst_rev = dst[mirror], src[mirror]
        else:
            src_rev, dst_rev = dst, src
        keys = np.empty(m + src_rev.shape[0], dtype=np.int64)
        np.multiply(src_rev, base, out=keys[m:])
        keys[m:] += dst_rev
    else:
        keys = np.empty(m, dtype=np.int64)
    np.multiply(src, base, out=keys[:m])
    keys[:m] += dst
    return keys


def _assemble(keys: np.ndarray, n: int, base: np.int64) -> CSRGraph:
    """CSR from packed keys already grouped by ascending row."""
    rows, indices = np.divmod(keys, base)
    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, indices, validate=False)


def from_edge_array(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int | None = None,
    **kwargs,
) -> CSRGraph:
    """Build a CSR graph from parallel endpoint arrays.

    ``num_vertices`` defaults to ``max(endpoint) + 1`` (0 for empty input).
    Keyword arguments are forwarded to :func:`build_csr`.
    """
    src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
    dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
    if num_vertices is None:
        num_vertices = (
            int(max(src.max(), dst.max())) + 1 if src.size else 0
        )
    return build_csr(EdgeList(num_vertices, src, dst), **kwargs)


def from_edge_list(
    pairs: Iterable[tuple[int, int]] | Sequence[tuple[int, int]],
    num_vertices: int | None = None,
    **kwargs,
) -> CSRGraph:
    """Build a CSR graph from an iterable of ``(u, v)`` pairs."""
    pairs = list(pairs)
    if pairs:
        arr = np.asarray(pairs, dtype=VERTEX_DTYPE)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError("pairs must be (u, v) tuples")
        src, dst = arr[:, 0], arr[:, 1]
    else:
        src = dst = np.empty(0, dtype=VERTEX_DTYPE)
    return from_edge_array(src, dst, num_vertices, **kwargs)


class GraphBuilder:
    """Incremental graph builder for examples and tests.

    Collects edges one at a time (amortised O(1) appends into Python lists)
    and assembles the CSR structure on :meth:`build`.
    """

    def __init__(self, num_vertices: int | None = None) -> None:
        self._num_vertices = num_vertices
        self._src: list[int] = []
        self._dst: list[int] = []

    def add_edge(self, u: int, v: int) -> "GraphBuilder":
        """Record the undirected edge ``{u, v}``; returns self for chaining."""
        if u < 0 or v < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        self._src.append(u)
        self._dst.append(v)
        return self

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> "GraphBuilder":
        """Record many undirected edges."""
        for u, v in pairs:
            self.add_edge(u, v)
        return self

    def add_path(self, vertices: Sequence[int]) -> "GraphBuilder":
        """Record the path ``v0 - v1 - ... - vk``."""
        for u, v in zip(vertices, vertices[1:]):
            self.add_edge(u, v)
        return self

    def add_cycle(self, vertices: Sequence[int]) -> "GraphBuilder":
        """Record the cycle through ``vertices``."""
        self.add_path(vertices)
        if len(vertices) > 1:
            self.add_edge(vertices[-1], vertices[0])
        return self

    def add_clique(self, vertices: Sequence[int]) -> "GraphBuilder":
        """Record all edges of a clique on ``vertices``."""
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                self.add_edge(u, v)
        return self

    def add_star(self, center: int, leaves: Sequence[int]) -> "GraphBuilder":
        """Record a star: ``center`` joined to each leaf."""
        for v in leaves:
            self.add_edge(center, v)
        return self

    def build(self, **kwargs) -> CSRGraph:
        """Assemble the CSR graph (kwargs forwarded to :func:`build_csr`)."""
        n = self._num_vertices
        if n is None:
            n = max(max(self._src, default=-1), max(self._dst, default=-1)) + 1
        src = np.asarray(self._src, dtype=VERTEX_DTYPE)
        dst = np.asarray(self._dst, dtype=VERTEX_DTYPE)
        return build_csr(EdgeList(n, src, dst), **kwargs)
