"""Incremental connectivity on top of the ``link`` primitive.

Afforest's ``link`` is exactly an edge-insertion operation on the parent
forest (Theorem 1 holds for any edge order, including one interleaved
with queries), so the library gets incremental connectivity — the
streaming-graph workload that motivates much of the CC literature — for
free.  :class:`IncrementalConnectivity` packages it with amortised path
compression and component bookkeeping.

Deletions are not supported (the tree-hooking family is inherently
incremental-only); rebuild with ``engine.run("afforest", graph)`` when
edges disappear.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.core.compress import compress_all
from repro.core.link import link, link_batch
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.unionfind.parent import ParentArray


class IncrementalConnectivity:
    """Connectivity under streaming edge insertions.

    Parameters
    ----------
    num_vertices:
        Fixed vertex universe (vertices cannot be added later).
    compress_every:
        A full vectorized compression runs after this many insertions,
        bounding tree depths (the incremental analogue of Afforest's
        interleaved ``compress`` phases).  ``0`` disables periodic
        compression entirely; correctness is then carried by the *lazy*
        query paths instead: :meth:`find` path-compresses exactly the
        chain it walks (and nothing else), the batch queries
        (:meth:`same_component_batch`, :meth:`roots_of`) chase parent
        pointers without mutating π at all, and :meth:`labels` /
        :meth:`component_sizes` still perform a full compression as a
        side effect.  Deep trees therefore cost O(depth) per query
        until something compresses them, but every answer stays exact.
    """

    def __init__(self, num_vertices: int, *, compress_every: int = 4096) -> None:
        if num_vertices < 0:
            raise ConfigurationError(
                f"num_vertices must be >= 0, got {num_vertices}"
            )
        if compress_every < 0:
            raise ConfigurationError(
                f"compress_every must be >= 0, got {compress_every}"
            )
        self._pi = np.arange(num_vertices, dtype=VERTEX_DTYPE)
        self._compress_every = compress_every
        self._since_compress = 0
        self._num_components = num_vertices
        self._edges_inserted = 0

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(cls, graph: CSRGraph, **kwargs) -> "IncrementalConnectivity":
        """Start from an existing graph's connectivity (bulk-loaded)."""
        inc = cls(graph.num_vertices, **kwargs)
        src, dst = graph.undirected_edge_array()
        inc.add_edges(src, dst)
        return inc

    @classmethod
    def from_labels(
        cls, labels: np.ndarray, **kwargs
    ) -> "IncrementalConnectivity":
        """Adopt a solved labeling (any valid parent array) as the start.

        ``labels`` must satisfy Invariant 1 (``pi[x] <= x``, acyclic) —
        exactly what every engine finish produces — so a batch solve can
        be promoted into a streaming structure without replaying edges.
        The array is copied; the caller's labeling stays untouched.
        """
        parents = ParentArray(np.asarray(labels))  # copies
        parents.check_invariant1()
        inc = cls(int(labels.shape[0]), **kwargs)
        inc._pi = parents.pi
        inc._num_components = parents.num_trees()
        return inc

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``{u, v}``; True if it connected two components."""
        self._check(u)
        self._check(v)
        merged = link(self._pi, u, v)
        if merged:
            self._num_components -= 1
        self._edges_inserted += 1
        self._maybe_compress(1)
        return merged

    def add_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Bulk insertion; returns the number of components merged."""
        src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
        if src.shape != dst.shape:
            raise ConfigurationError("src/dst must have equal length")
        if src.size and (
            min(src.min(), dst.min()) < 0
            or max(src.max(), dst.max()) >= self.num_vertices
        ):
            raise ConfigurationError("edge endpoint out of range")
        before = self._count_components_exact()
        link_batch(self._pi, src, dst)
        self._edges_inserted += int(src.shape[0])
        self._maybe_compress(int(src.shape[0]))
        after = self._count_components_exact()
        merged = before - after
        self._num_components = after
        return merged

    def _maybe_compress(self, inserted: int) -> None:
        if self._compress_every == 0:
            return
        self._since_compress += inserted
        if self._since_compress >= self._compress_every:
            compress_all(self._pi)
            self._since_compress = 0

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return int(self._pi.shape[0])

    @property
    def num_components(self) -> int:
        """Current number of connected components."""
        return self._num_components

    @property
    def edges_inserted(self) -> int:
        return self._edges_inserted

    def find(self, v: int) -> int:
        """Component representative of ``v`` (with path compression)."""
        self._check(v)
        pi = self._pi
        root = v
        while pi[root] != root:
            root = int(pi[root])
        # Path compression: point the walked chain at the root.
        while pi[v] != root:
            pi[v], v = root, int(pi[v])
        return root

    def connected(self, u: int, v: int) -> bool:
        """True if ``u`` and ``v`` are currently in the same component."""
        return self.find(u) == self.find(v)

    def roots_of(self, vs: np.ndarray) -> np.ndarray:
        """Component representatives of a vertex batch, vectorized.

        Chases parent pointers for the whole batch at once (one gather
        per surviving tree level), so the cost is O(batch · depth)
        vectorized work rather than a Python loop over :meth:`find`
        calls.  π is *not* mutated — the lazy self-compression stays on
        the scalar :meth:`find` path — which keeps batch reads safe to
        run against a structure another code path is inserting into.
        """
        vs = np.ascontiguousarray(vs, dtype=VERTEX_DTYPE)
        self._check_batch(vs)
        pi = self._pi
        roots = pi[vs]
        while True:
            parents = pi[roots]
            if np.array_equal(parents, roots):
                return roots
            roots = parents

    def same_component_batch(
        self, us: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``connected``: one boolean per ``(us[i], vs[i])``."""
        us = np.ascontiguousarray(us, dtype=VERTEX_DTYPE)
        vs = np.ascontiguousarray(vs, dtype=VERTEX_DTYPE)
        if us.shape != vs.shape:
            raise ConfigurationError("us/vs must have equal length")
        # One fused root chase over both endpoint batches: the per-level
        # gather cost is paid once instead of twice.
        roots = self.roots_of(np.concatenate([us, vs]))
        return roots[: us.shape[0]] == roots[us.shape[0] :]

    def component_sizes(self, vs: np.ndarray) -> np.ndarray:
        """Current component size for each vertex in ``vs``.

        Needs a full census, so this compresses π as a side effect
        (like :meth:`labels`) and counts every component once; the
        per-vertex lookup afterwards is a single gather.
        """
        vs = np.ascontiguousarray(vs, dtype=VERTEX_DTYPE)
        self._check_batch(vs)
        labels = self.labels()
        counts = np.bincount(labels, minlength=self.num_vertices)
        return counts[labels[vs]]

    def component_of(self, v: int) -> np.ndarray:
        """All vertices currently in ``v``'s component (O(n) scan)."""
        labels = self.labels()
        return np.nonzero(labels == labels[v])[0]

    def labels(self) -> np.ndarray:
        """A full component labeling (compresses as a side effect)."""
        compress_all(self._pi)
        self._since_compress = 0
        return self._pi.copy()

    def _count_components_exact(self) -> int:
        return ParentArray(self._pi).num_trees()

    def _check(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise ConfigurationError(
                f"vertex {v} out of range for {self.num_vertices}-vertex universe"
            )

    def _check_batch(self, vs: np.ndarray) -> None:
        if vs.size and (
            int(vs.min()) < 0 or int(vs.max()) >= self.num_vertices
        ):
            raise ConfigurationError(
                f"vertex batch out of range for {self.num_vertices}-vertex"
                " universe"
            )
