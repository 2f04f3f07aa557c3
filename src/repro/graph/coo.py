"""Edge-list (COO) container and transforms.

The paper's GPU baseline (Soman et al.) operates on edge lists rather than
CSR; :class:`EdgeList` is the library's counterpart, also used as the interim
format of every graph builder and generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError
from repro.nputil import sorted_unique


def packed_key_base(num_vertices: int) -> np.int64:
    """Multiplier ``n`` of the packed edge key ``src * n + dst``.

    Every edge sort in the library orders records by this one int64 key.
    Its largest value is ``n * n - 1``, so a vertex count whose square
    does not fit in int64 (``n > 3_037_000_499``) would wrap silently and
    merge distinct edges; such counts raise :class:`GraphFormatError`
    before any key is allocated.
    """
    if num_vertices * num_vertices > np.iinfo(np.int64).max:
        raise GraphFormatError(
            f"{num_vertices} vertices overflow the int64 packed edge key "
            "src * n + dst"
        )
    return np.int64(max(num_vertices, 1))


@dataclass(frozen=True)
class EdgeList:
    """A bag of directed edges over ``num_vertices`` vertices.

    ``src`` and ``dst`` are parallel ``int64`` arrays.  Duplicates and self
    loops are permitted; use the transform methods to normalise.
    """

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(self.dst, dtype=VERTEX_DTYPE)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
            raise GraphFormatError("src/dst must be 1-D arrays of equal length")
        if self.num_vertices < 0:
            raise GraphFormatError("num_vertices must be non-negative")
        if src.size:
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= self.num_vertices:
                raise GraphFormatError(
                    f"edge endpoints must lie in [0, {self.num_vertices}); "
                    f"found range [{lo}, {hi}]"
                )

    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edge records."""
        return int(self.src.shape[0])

    def deduplicated(self) -> "EdgeList":
        """Drop exact duplicate ``(src, dst)`` records (orientation-aware),
        keeping the first occurrence of each in record order."""
        base = packed_key_base(self.num_vertices)
        if self.num_edges == 0:
            return self
        _, first = sorted_unique(self.src * base + self.dst, return_index=True)
        first.sort()
        return EdgeList(self.num_vertices, self.src[first], self.dst[first])

    def canonicalized(self) -> "EdgeList":
        """Normalise each record to ``src <= dst`` (undirected canonical
        form), preserving record order."""
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        return EdgeList(self.num_vertices, lo, hi)

    def permuted(self, order: np.ndarray) -> "EdgeList":
        """Reorder edge records by ``order`` (a permutation of record ids).

        Used to build adversarial edge orders for worst-case analyses
        (paper Sec. V-A).
        """
        order = np.asarray(order)
        if order.shape != self.src.shape:
            raise GraphFormatError("permutation length must equal num_edges")
        return EdgeList(self.num_vertices, self.src[order], self.dst[order])

    def concatenated(self, other: "EdgeList") -> "EdgeList":
        """Append ``other``'s records (vertex counts must agree)."""
        if other.num_vertices != self.num_vertices:
            raise GraphFormatError("cannot concatenate edge lists of different orders")
        return EdgeList(
            self.num_vertices,
            np.concatenate([self.src, other.src]),
            np.concatenate([self.dst, other.dst]),
        )

    def relabeled(self, mapping: np.ndarray, num_vertices: int) -> "EdgeList":
        """Apply a vertex relabeling ``v -> mapping[v]``."""
        mapping = np.ascontiguousarray(mapping, dtype=VERTEX_DTYPE)
        if mapping.shape[0] != self.num_vertices:
            raise GraphFormatError("mapping length must equal num_vertices")
        return EdgeList(num_vertices, mapping[self.src], mapping[self.dst])

    def as_pairs(self) -> list[tuple[int, int]]:
        """Edges as Python tuples (slow path, for tests)."""
        return [(int(u), int(v)) for u, v in zip(self.src, self.dst)]
