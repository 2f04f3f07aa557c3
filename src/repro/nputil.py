"""Shared vectorised array utilities.

These implement the flat "expand CSR slices without a Python loop" patterns
used across the library: frontier expansion in BFS, remaining-neighbour
flattening in Afforest's final phase, and frontier edge gathering in
data-driven label propagation.  :func:`sorted_unique` is the library's one
distinct-values primitive: every frontier dedup, label count and
first-occurrence lookup goes through it rather than ``np.unique``, whose
hash-based path on recent numpy costs an order of magnitude more than a
sort plus an adjacent-difference mask on integer keys.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.constants import VERTEX_DTYPE

__all__ = ["segment_ranges", "expand_slices", "run_starts", "sorted_unique"]


def segment_ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for each ``c`` in ``counts``.

    ``segment_ranges([2, 0, 3]) == [0, 1, 0, 1, 2]``.  Zero-length segments
    contribute nothing (and are dropped up front so the boundary resets
    land on distinct positions).
    """
    nz = counts[counts > 0].astype(VERTEX_DTYPE)
    total = int(nz.sum())
    if total == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    out = np.ones(total, dtype=VERTEX_DTYPE)
    out[0] = 0
    if nz.shape[0] > 1:
        out[np.cumsum(nz)[:-1]] = 1 - nz[:-1]
    return np.cumsum(out)


def expand_slices(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the slices ``[starts[i], starts[i] + counts[i])``.

    Returns ``(owner, offset)``: ``owner[k]`` is the slice index that
    produced flat element ``k`` and ``offset[k]`` its absolute position.
    The core idiom for touching the CSR neighbourhoods of a vertex set in
    one vectorised gather.
    """
    counts = np.maximum(counts, 0)
    owner = np.repeat(
        np.arange(counts.shape[0], dtype=VERTEX_DTYPE), counts
    )
    offset = np.repeat(starts, counts) + segment_ranges(counts)
    return owner, offset


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run of equal values.

    ``ordered[run_starts(ordered)]`` is the distinct values of a sorted
    array: the adjacent-difference half of :func:`sorted_unique`, for
    callers that sort their own keys in place.
    """
    first = np.empty(ordered.shape[0], dtype=bool)
    if ordered.shape[0]:
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def sorted_unique(
    x: np.ndarray,
    *,
    return_index: bool = False,
    return_inverse: bool = False,
    return_counts: bool = False,
) -> Any:
    """Sorted distinct values of ``x``, as ``np.unique`` returns them.

    The values are a sorted copy of ``x`` (flattened) masked down to the
    first element of each run of equal values, so they keep ``x``'s dtype.
    An ``argsort`` replaces the plain sort only when ``return_index`` or
    ``return_inverse`` asks for positions, and it is stable when
    ``return_index`` is set: ``index`` holds the first occurrence of each
    value and ``inverse`` rebuilds ``x`` from the values.  With any
    ``return_*`` flag the result is a tuple in ``np.unique``'s order
    (values, index, inverse, counts); positions and counts are ``intp``.
    Meant for integer keys: NaNs are not merged.
    """
    flat = np.asarray(x).ravel()
    if return_index or return_inverse:
        # Only ``index`` depends on how ties are ordered; the unstable
        # sort is several times faster when the inverse alone is asked for.
        order = np.argsort(flat, kind="stable" if return_index else "quicksort")
        ordered = flat[order]
    else:
        ordered = np.array(flat, copy=True)
        ordered.sort()
    size = ordered.shape[0]
    first = run_starts(ordered)
    values = ordered[first]
    if not (return_index or return_inverse or return_counts):
        return values
    out: list[np.ndarray] = [values]
    if return_index:
        out.append(order[first])
    if return_inverse:
        inverse = np.empty(size, dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        out.append(inverse)
    if return_counts:
        starts = np.flatnonzero(first)
        out.append(np.diff(np.concatenate((starts, [size]))))
    return tuple(out)
