"""The parent array π: the central data structure of the SV/Afforest family.

:class:`ParentArray` wraps a flat ``int64`` array of parent pointers with the
diagnostics the paper's analysis needs: Invariant-1 checking (``pi[x] <= x``,
Sec. III-A), cycle detection, per-vertex tree depth, root/tree census, and
conversion to a canonical component labeling.

Hot algorithm kernels operate on the raw ndarray (``ParentArray.pi``); the
wrapper methods are for validation, analysis and tests.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import InvariantViolationError
from repro.nputil import sorted_unique


class ParentArray:
    """Parent-pointer forest over ``n`` vertices.

    Construction initialises every vertex self-pointing (``pi[v] = v``),
    matching line 1 of both SV (Fig. 1) and Afforest (Fig. 5).
    """

    __slots__ = ("_pi",)

    def __init__(self, n_or_array: int | np.ndarray) -> None:
        if isinstance(n_or_array, (int, np.integer)):
            self._pi = np.arange(int(n_or_array), dtype=VERTEX_DTYPE)
        else:
            arr = np.ascontiguousarray(n_or_array, dtype=VERTEX_DTYPE)
            if arr.ndim != 1:
                raise InvariantViolationError("parent array must be 1-D")
            if arr.size and (arr.min() < 0 or arr.max() >= arr.size):
                raise InvariantViolationError(
                    "parent pointers must lie within [0, n)"
                )
            self._pi = arr.copy()

    # ------------------------------------------------------------------ #
    # raw access
    # ------------------------------------------------------------------ #

    @property
    def pi(self) -> np.ndarray:
        """The underlying mutable parent array (hot kernels write here)."""
        return self._pi

    @property
    def num_vertices(self) -> int:
        return int(self._pi.shape[0])

    def copy(self) -> "ParentArray":
        return ParentArray(self._pi)

    def __len__(self) -> int:
        return self.num_vertices

    def __getitem__(self, v: int) -> int:
        return int(self._pi[v])

    # ------------------------------------------------------------------ #
    # invariants & diagnostics
    # ------------------------------------------------------------------ #

    def check_invariant1(self) -> None:
        """Assert Invariant 1 of the paper: ``pi[x] <= x`` for every x.

        Lemma 1 derives acyclicity (for cycles of length >= 2) from this
        invariant; it must hold after every ``link``/``compress``.
        """
        bad = np.nonzero(self._pi > np.arange(self.num_vertices, dtype=VERTEX_DTYPE))[0]
        if bad.size:
            v = int(bad[0])
            raise InvariantViolationError(
                f"Invariant 1 violated at vertex {v}: pi[{v}] = {int(self._pi[v])} > {v}"
                f" ({bad.size} violations total)"
            )

    def holds_invariant1(self) -> bool:
        """Non-raising form of :meth:`check_invariant1`."""
        return bool(np.all(self._pi <= np.arange(self.num_vertices, dtype=VERTEX_DTYPE)))

    def has_cycle(self) -> bool:
        """True if π contains a cycle of length >= 2 (self loops at roots
        are the normal terminal state, not cycles).

        Exact O(n): walk each unvisited chain, marking vertices as
        on-the-current-path (1) or settled (2).  Revisiting a vertex on the
        current path means a cycle; reaching a settled vertex or a root does
        not.
        """
        n = self.num_vertices
        pi = self._pi
        state = np.zeros(n, dtype=np.int8)
        for start in range(n):
            if state[start] != 0:
                continue
            path = []
            v = start
            while True:
                if state[v] == 1:
                    return True  # hit our own in-progress path
                if state[v] == 2:
                    break  # joins a previously settled chain
                state[v] = 1
                path.append(v)
                p = int(pi[v])
                if p == v:
                    break  # root
                v = p
            for u in path:
                state[u] = 2
        return False

    def roots(self) -> np.ndarray:
        """Ids of root vertices (``pi[v] == v``)."""
        idx = np.arange(self.num_vertices, dtype=VERTEX_DTYPE)
        return idx[self._pi == idx]

    def num_trees(self) -> int:
        """Number of trees in the forest (= number of roots)."""
        idx = np.arange(self.num_vertices, dtype=VERTEX_DTYPE)
        return int(np.count_nonzero(self._pi == idx))

    def find_root(self, v: int) -> int:
        """Walk parent pointers from ``v`` to its root (no path mutation)."""
        pi = self._pi
        seen = 0
        n = self.num_vertices
        while pi[v] != v:
            v = int(pi[v])
            seen += 1
            if seen > n:
                raise InvariantViolationError("cycle encountered in parent array")
        return v

    def depth(self, v: int) -> int:
        """Number of parent hops from ``v`` to its root."""
        pi = self._pi
        d = 0
        n = self.num_vertices
        while pi[v] != v:
            v = int(pi[v])
            d += 1
            if d > n:
                raise InvariantViolationError("cycle encountered in parent array")
        return d

    def depths(self) -> np.ndarray:
        """Depth of every vertex, computed in O(n) total via memoisation."""
        n = self.num_vertices
        pi = self._pi
        depths = np.full(n, -1, dtype=VERTEX_DTYPE)
        idx = np.arange(n, dtype=VERTEX_DTYPE)
        depths[pi == idx] = 0
        for v in range(n):
            if depths[v] >= 0:
                continue
            path = []
            x = v
            while depths[x] < 0:
                path.append(x)
                x = int(pi[x])
                if len(path) > n:
                    raise InvariantViolationError("cycle encountered in parent array")
            base = int(depths[x])
            for i, u in enumerate(reversed(path), start=1):
                depths[u] = base + i
        return depths

    def max_depth(self) -> int:
        """Maximum tree depth in the forest (0 for a fully compressed one)."""
        if self.num_vertices == 0:
            return 0
        return int(self.depths().max())

    def is_flat(self) -> bool:
        """True when every tree has depth <= 1 (post-``compress`` state)."""
        return bool(np.all(self._pi[self._pi] == self._pi))

    # ------------------------------------------------------------------ #
    # labeling
    # ------------------------------------------------------------------ #

    def labels(self) -> np.ndarray:
        """Component label (root id) of every vertex.

        Fully resolves chains regardless of current compression state.
        """
        pi = self._pi.copy()
        n = self.num_vertices
        # Pointer doubling: O(log depth) passes, each a vectorised gather.
        for _ in range(n + 1):
            nxt = pi[pi]
            if np.array_equal(nxt, pi):
                return pi
            pi = nxt
        raise InvariantViolationError("cycle encountered in parent array")

    def tree_sizes(self) -> dict[int, int]:
        """Mapping root id -> number of vertices in its tree."""
        lab = self.labels()
        roots, counts = sorted_unique(lab, return_counts=True)
        return {int(r): int(c) for r, c in zip(roots, counts)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParentArray(n={self.num_vertices}, trees={self.num_trees()})"
