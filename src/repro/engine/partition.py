"""Edge-block partitioning and shared-memory plumbing for the process backend.

The paper's central observation — link/compress apply to *arbitrary* edge
subsets independently (Theorem 1) — is exactly what makes Afforest
partitionable across real OS processes.  This module provides the two
ingredients :class:`~repro.engine.backends.ProcessParallelBackend` builds
on:

- **contiguous CSR edge blocks** (:func:`partition_csr_blocks`): the
  vertex range ``[v_lo, v_hi)`` whose neighbour slots form the contiguous
  span ``indices[e_lo:e_hi]``, cut so every block carries roughly the same
  number of edge slots regardless of degree skew;
- **shared-memory vectors** (:class:`SharedVector`) holding π, the CSR
  arrays, and flat edge batches in ``multiprocessing.shared_memory``
  segments, so a persistent worker pool operates on the *same* physical
  parent array with zero per-task copying.

The ``_task_*`` functions at the bottom are the worker-side phase bodies:
each receives segment *specs* (name/length/dtype tuples), attaches the
segments once per process (cached in :data:`_ATTACHED`), and runs the
existing vectorized kernels (:func:`~repro.core.link.link_batch`,
pointer-jumping compression) restricted to its block.  When the backend
is tracing, each task additionally receives a ``(stats spec, slot)``
handle into a shared float64 *stats segment* and records its start/end
``perf_counter`` timestamps, pid, and work counters into its row
(:data:`STATS_FIELDS` per task); the parent merges the rows into the
run's trace as per-worker spans after every barrier.  Cross-process hooks are plain
scatter-min writes — lock-free, monotone toward smaller labels — so a
racing write can *lose an update* but never corrupt the forest: every
value written into ``pi[h]`` is a label drawn from ``h``'s own component
and smaller than ``h``, preserving Invariant 1 (``pi[x] <= x``) under any
interleaving.  Lost merges are repaired by the backend's settle loop
(:func:`_task_check_fix`) between global compress barriers.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.core.link import link_batch
from repro.errors import ConfigurationError
from repro.nputil import segment_ranges, sorted_unique

__all__ = [
    "EdgeBlock",
    "STATS_FIELDS",
    "SharedVector",
    "bottom_up_block",
    "partition_csr_blocks",
    "partition_ranges",
    "partition_weighted_ranges",
    "preferred_start_method",
]

_DTYPE = np.dtype(VERTEX_DTYPE)

#: segment spec shipped to workers: (shm name, element count, dtype str).
SegSpec = tuple[str, int, str]

# ------------------------------------------------------------------ #
# per-task telemetry rows (see the module docstring)
# ------------------------------------------------------------------ #

#: float64 slots per task row in a stats segment.
STATS_FIELDS = 5
_SF_T0, _SF_T1, _SF_PID, _SF_ITEMS, _SF_AUX = range(STATS_FIELDS)

#: optional per-task telemetry handle: (stats segment spec, row slot).
StatsSlot = "tuple[SegSpec, int] | None"


def _record_stats(
    stats, t0: float, items: int = 0, aux: int = 0
) -> None:
    """Write a task's telemetry row (no-op when tracing is off).

    ``t0`` is the task-entry ``perf_counter`` stamp; ``items`` counts the
    task's work units (edge slots linked, π slots compressed); ``aux``
    carries a phase-specific extra (e.g. skipped slots).  The end stamp
    is taken here, so call this last.
    """
    if stats is None:
        return
    spec, slot = stats
    row = _attach_view(spec)[slot * STATS_FIELDS : (slot + 1) * STATS_FIELDS]
    row[_SF_T0] = t0
    row[_SF_T1] = time.perf_counter()
    row[_SF_PID] = os.getpid()
    row[_SF_ITEMS] = items
    row[_SF_AUX] = aux


# --------------------------------------------------------------------- #
# partitioning
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class EdgeBlock:
    """A contiguous CSR edge block.

    Covers the vertex range ``[v_lo, v_hi)``; because CSR stores each
    vertex's neighbours contiguously, the block's edge slots are the
    contiguous span ``[e_lo, e_hi)`` of ``indices``.
    """

    v_lo: int
    v_hi: int
    e_lo: int
    e_hi: int

    @property
    def num_vertices(self) -> int:
        """Vertices covered by the block."""
        return self.v_hi - self.v_lo

    @property
    def num_edges(self) -> int:
        """Directed edge slots covered by the block."""
        return self.e_hi - self.e_lo


def partition_csr_blocks(indptr: np.ndarray, num_blocks: int) -> list[EdgeBlock]:
    """Cut the CSR structure into ``num_blocks`` contiguous edge blocks.

    Block boundaries fall on vertex boundaries (a vertex's neighbour list
    is never split) and are chosen by binary-searching ``indptr`` at even
    edge-count targets, so blocks are edge-balanced even under power-law
    degree skew.  Together the blocks cover every vertex exactly once;
    trailing isolated vertices land in the last block.
    """
    if num_blocks < 1:
        raise ConfigurationError(f"num_blocks must be >= 1, got {num_blocks}")
    n = int(indptr.shape[0] - 1)
    m = int(indptr[-1]) if n else 0
    targets = np.linspace(0, m, num_blocks + 1)
    cuts = np.searchsorted(indptr, targets, side="left").astype(np.int64)
    cuts[0] = 0
    cuts[-1] = n
    cuts = np.maximum.accumulate(np.clip(cuts, 0, n))
    return [
        EdgeBlock(
            int(cuts[b]),
            int(cuts[b + 1]),
            int(indptr[cuts[b]]),
            int(indptr[cuts[b + 1]]),
        )
        for b in range(num_blocks)
    ]


def partition_ranges(total: int, num_blocks: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into ``num_blocks`` near-equal ``(lo, hi)``
    ranges (for flat edge arrays and per-vertex π sweeps)."""
    if num_blocks < 1:
        raise ConfigurationError(f"num_blocks must be >= 1, got {num_blocks}")
    bounds = np.linspace(0, total, num_blocks + 1).astype(np.int64)
    return [(int(bounds[b]), int(bounds[b + 1])) for b in range(num_blocks)]


def partition_weighted_ranges(
    weights: np.ndarray, num_blocks: int
) -> list[tuple[int, int]]:
    """Split ``[0, len(weights))`` into ``num_blocks`` contiguous ``(lo, hi)``
    ranges of roughly equal total weight.

    Used to cut a frontier into degree-balanced slices: the weights are the
    frontier vertices' degrees, so each worker expands a similar number of
    edge slots even when a few high-degree hubs dominate the frontier.
    Falls back to even item counts when every weight is zero.
    """
    if num_blocks < 1:
        raise ConfigurationError(f"num_blocks must be >= 1, got {num_blocks}")
    n = int(weights.shape[0])
    total = int(weights.sum()) if n else 0
    if total == 0:
        return partition_ranges(n, num_blocks)
    cum = np.cumsum(weights)
    targets = np.linspace(0, total, num_blocks + 1)
    cuts = np.searchsorted(cum, targets, side="left").astype(np.int64)
    cuts[0] = 0
    cuts[-1] = n
    cuts = np.maximum.accumulate(np.clip(cuts, 0, n))
    return [(int(cuts[b]), int(cuts[b + 1])) for b in range(num_blocks)]


def preferred_start_method() -> str:
    """``fork`` where available (fast pool start), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# --------------------------------------------------------------------- #
# shared-memory vectors
# --------------------------------------------------------------------- #


class SharedVector:
    """A typed vector living in a shared-memory segment.

    Created by the parent (``SharedVector(length)``); workers attach by
    name through :func:`_attach_view`.  ``array`` is the parent's live
    view; ``spec`` is what gets pickled into worker tasks.  The default
    dtype is ``VERTEX_DTYPE`` (π, CSR mirrors, edge batches); the process
    backend's telemetry rows use ``float64`` segments.
    """

    __slots__ = ("shm", "length", "dtype", "array")

    def __init__(self, length: int, dtype=VERTEX_DTYPE) -> None:
        self.dtype = np.dtype(dtype)
        nbytes = max(int(length) * self.dtype.itemsize, 1)
        self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.length = int(length)
        self.array = np.frombuffer(
            self.shm.buf, dtype=self.dtype, count=self.length
        )

    @property
    def spec(self) -> SegSpec:
        """Pickle-friendly handle workers attach with."""
        return (self.shm.name, self.length, self.dtype.str)

    def release(self) -> None:
        """Unmap and unlink the segment.

        If views of the buffer escaped (e.g. labels returned by a direct
        pipeline call that were never detached), ``close`` raises
        ``BufferError``; the name is still unlinked so the memory is
        reclaimed once the last view dies.
        """
        self.array = None  # type: ignore[assignment]
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - external views alive
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


# --------------------------------------------------------------------- #
# worker-side attachment cache
# --------------------------------------------------------------------- #

#: per-process cache: segment name -> attached SharedMemory.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}

#: per-process cache: (segment name, dtype str) -> full-buffer view.
_VIEWS: dict[tuple[str, str], np.ndarray] = {}


def _attach_view(spec: SegSpec) -> np.ndarray:
    """The first ``length`` elements of segment ``name``, attached once.

    Works identically in workers and in the parent (the parent's own
    mapping is simply re-attached by name), so every ``_task_*`` body can
    also run inline for debugging.  Legacy two-element specs default to
    ``VERTEX_DTYPE``.
    """
    name, length = spec[0], spec[1]
    dtype = np.dtype(spec[2]) if len(spec) > 2 else _DTYPE
    key = (name, dtype.str)
    view = _VIEWS.get(key)
    if view is None:
        shm = _ATTACHED.get(name)
        if shm is None:
            # Attaching re-registers the name with the resource tracker,
            # but pool workers inherit the parent's tracker (fork and
            # spawn both pass the fd), so the registration set simply
            # dedupes; cleanup stays with the parent's release()/unlink().
            shm = shared_memory.SharedMemory(name=name)
            _ATTACHED[name] = shm
        view = np.frombuffer(shm.buf, dtype=dtype)
        _VIEWS[key] = view
    return view[:length]


def _evict_attached(name: str) -> None:
    """Drop a cached attachment (parent-side, after releasing a segment)."""
    shm = _ATTACHED.pop(name, None)
    for key in [k for k in _VIEWS if k[0] == name]:
        del _VIEWS[key]
    if shm is not None:
        try:
            shm.close()
        except BufferError:  # pragma: no cover
            pass


# --------------------------------------------------------------------- #
# worker task bodies (one call = one block of one phase)
# --------------------------------------------------------------------- #


def _task_link_round(
    pi_spec: SegSpec,
    indptr_spec: SegSpec,
    indices_spec: SegSpec,
    v_lo: int,
    v_hi: int,
    r: int,
    stats=None,
) -> None:
    """Neighbour round ``r`` over one block: link ``(v, N(v)[r])`` for
    every block vertex with degree > r."""
    t0 = time.perf_counter()
    if v_hi <= v_lo:
        _record_stats(stats, t0)
        return
    pi = _attach_view(pi_spec)
    indptr = _attach_view(indptr_spec)
    indices = _attach_view(indices_spec)
    ip = indptr[v_lo : v_hi + 1]
    deg = np.diff(ip)
    sel = np.nonzero(deg > r)[0]
    if sel.size == 0:
        _record_stats(stats, t0)
        return
    verts = (v_lo + sel).astype(VERTEX_DTYPE)
    nbrs = indices[ip[sel] + r]
    link_batch(pi, verts, nbrs)
    _record_stats(stats, t0, items=int(sel.size))


def _task_link_edges(
    pi_spec: SegSpec,
    src_spec: SegSpec,
    dst_spec: SegSpec,
    lo: int,
    hi: int,
    stats=None,
) -> None:
    """Link one contiguous range of a flat shared edge batch."""
    t0 = time.perf_counter()
    if hi <= lo:
        _record_stats(stats, t0)
        return
    pi = _attach_view(pi_spec)
    src = _attach_view(src_spec)
    dst = _attach_view(dst_spec)
    link_batch(pi, src[lo:hi], dst[lo:hi])
    _record_stats(stats, t0, items=hi - lo)


def _task_link_remaining(
    pi_spec: SegSpec,
    indptr_spec: SegSpec,
    indices_spec: SegSpec,
    v_lo: int,
    v_hi: int,
    start: int,
    largest: int | None,
    stats=None,
) -> tuple[int, int]:
    """Afforest final phase over one block.

    Links edge slots ``start..deg(v)-1`` of every block vertex whose
    current label differs from ``largest``; returns ``(linked, skipped)``
    slot counts (the per-block shares of ``edges_final``/``edges_skipped``).
    """
    t0 = time.perf_counter()
    if v_hi <= v_lo:
        _record_stats(stats, t0)
        return 0, 0
    pi = _attach_view(pi_spec)
    indptr = _attach_view(indptr_spec)
    indices = _attach_view(indices_spec)
    verts = np.arange(v_lo, v_hi, dtype=VERTEX_DTYPE)
    deg = indptr[v_lo + 1 : v_hi + 1] - indptr[v_lo:v_hi]
    skipped = 0
    if largest is not None:
        keep = pi[verts] != largest
        skipped = int(np.maximum(deg[~keep] - start, 0).sum())
        verts = verts[keep]
        deg = deg[keep]
    counts = np.maximum(deg - start, 0)
    total = int(counts.sum())
    if total == 0:
        _record_stats(stats, t0, aux=skipped)
        return 0, skipped
    src = np.repeat(verts, counts)
    offsets = np.repeat(indptr[verts] + start, counts) + segment_ranges(counts)
    link_batch(pi, src, indices[offsets])
    _record_stats(stats, t0, items=total, aux=skipped)
    return total, skipped


def _task_compress(pi_spec: SegSpec, lo: int, hi: int, stats=None) -> None:
    """Compress the block's π slots to their roots by pointer jumping.

    Reads may cross block boundaries but writes stay inside ``[lo, hi)``,
    so slots are single-writer; concurrent writers elsewhere only ever
    shorten paths (Theorem 2), and roots are stable during a compress
    phase (no links run concurrently), so the loop terminates with every
    block slot pointing at a true root.
    """
    t0 = time.perf_counter()
    if hi <= lo:
        _record_stats(stats, t0)
        return
    pi = _attach_view(pi_spec)
    passes = 0
    while True:
        p = pi[lo:hi].copy()
        gp = pi[p]
        if np.array_equal(gp, p):
            _record_stats(stats, t0, items=hi - lo, aux=passes)
            return
        pi[lo:hi] = gp
        passes += 1


def _task_shortcut(pi_spec: SegSpec, lo: int, hi: int, stats=None) -> None:
    """One single-step shortcut over the block: ``pi[v] <- pi[pi[v]]``."""
    t0 = time.perf_counter()
    if hi <= lo:
        _record_stats(stats, t0)
        return
    pi = _attach_view(pi_spec)
    pi[lo:hi] = pi[pi[lo:hi]]
    _record_stats(stats, t0, items=hi - lo)


def _task_hook(
    pi_spec: SegSpec,
    src_spec: SegSpec,
    dst_spec: SegSpec,
    lo: int,
    hi: int,
    stats=None,
) -> bool:
    """One SV hook pass over a range of the shared edge batch.

    Scatter-min onto observed roots (the FastSV-style min-hook); returns
    True when the block attempted any hook.  A racing overwrite can lose a
    hook, but the loser's block already reported "changed", so the
    pipeline's convergence test (a full pass with *no* change anywhere)
    remains sound.
    """
    t0 = time.perf_counter()
    if hi <= lo:
        _record_stats(stats, t0)
        return False
    pi = _attach_view(pi_spec)
    src = _attach_view(src_spec)
    dst = _attach_view(dst_spec)
    cu = pi[src[lo:hi]]
    cv = pi[dst[lo:hi]]
    mask = (cu < cv) & (pi[cv] == cv)
    if not mask.any():
        _record_stats(stats, t0, items=hi - lo)
        return False
    np.minimum.at(pi, cv[mask], cu[mask])
    _record_stats(stats, t0, items=hi - lo, aux=int(mask.sum()))
    return True


def bottom_up_block(
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    mask: np.ndarray,
    v_lo: int,
    v_hi: int,
    label: int,
    sentinel: int,
) -> tuple[np.ndarray, int, int]:
    """Bottom-up BFS sweep over the unvisited vertices of ``[v_lo, v_hi)``.

    Every block vertex still carrying ``sentinel`` scans its own neighbour
    list and adopts ``label`` when a neighbour is in the frontier
    (``mask`` nonzero).  Writes stay inside the block (each vertex writes
    only its own π slot), so the sweep is race-free across blocks.

    Returns ``(found vertices, modeled edges, gathered edges)`` —
    ``modeled`` is the early-exit scan count (stop at the first frontier
    hit, what real hardware touches); ``gathered`` the full vectorized
    gather volume.  Shared by the vectorized backend (one block spanning
    all vertices) and the process backend's per-block tasks.
    """
    empty = np.empty(0, dtype=VERTEX_DTYPE)
    block = pi[v_lo:v_hi]
    unvisited = (v_lo + np.nonzero(block == sentinel)[0]).astype(VERTEX_DTYPE)
    if unvisited.size == 0:
        return empty, 0, 0
    starts = indptr[unvisited]
    counts = (indptr[unvisited + 1] - starts).astype(VERTEX_DTYPE)
    total = int(counts.sum())
    if total == 0:
        return empty, 0, 0
    offsets = np.repeat(starts, counts) + segment_ranges(counts)
    hit = mask[indices[offsets]] != 0

    # Segmented first-hit position (within each vertex's neighbour list):
    # positions with no hit get the segment length (i.e. "scanned all").
    within = segment_ranges(counts)
    pos_or_len = np.where(hit, within, np.repeat(counts, counts))
    nonempty = counts > 0
    seg_starts = np.zeros(unvisited.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_starts[1:])
    first_hit = np.minimum.reduceat(pos_or_len, seg_starts[nonempty])

    found_nonempty = first_hit < counts[nonempty]
    found = unvisited[nonempty][found_nonempty]
    pi[found] = label

    # Early-exit model: scanned first_hit + 1 slots on a hit, the whole
    # list otherwise.
    modeled = int(
        np.where(found_nonempty, first_hit + 1, counts[nonempty]).sum()
    )
    return found.astype(VERTEX_DTYPE), modeled, total


def _task_propagate(
    pi_spec: SegSpec,
    indptr_spec: SegSpec,
    indices_spec: SegSpec,
    v_lo: int,
    v_hi: int,
    stats=None,
) -> int:
    """One synchronous min-label sweep over the block's CSR edge slots.

    Scatter-min of each edge's source label into its destination; returns
    the number of edges whose candidate beat the destination label at read
    time.  Cross-block writes race exactly like the hook tasks: a lost
    min-write implies the loser reported a change, so a global pass
    reporting zero changes everywhere performed no writes and certifies
    the fixpoint.
    """
    t0 = time.perf_counter()
    if v_hi <= v_lo:
        _record_stats(stats, t0)
        return 0
    pi = _attach_view(pi_spec)
    indptr = _attach_view(indptr_spec)
    indices = _attach_view(indices_spec)
    e_lo = int(indptr[v_lo])
    e_hi = int(indptr[v_hi])
    if e_hi <= e_lo:
        _record_stats(stats, t0)
        return 0
    deg = np.diff(indptr[v_lo : v_hi + 1])
    src = np.repeat(np.arange(v_lo, v_hi, dtype=VERTEX_DTYPE), deg)
    dst = indices[e_lo:e_hi]
    cand = pi[src]
    won = cand < pi[dst]
    if not won.any():
        _record_stats(stats, t0, items=e_hi - e_lo)
        return 0
    np.minimum.at(pi, dst[won], cand[won])
    changed = int(won.sum())
    _record_stats(stats, t0, items=e_hi - e_lo, aux=changed)
    return changed


def _task_frontier_expand(
    pi_spec: SegSpec,
    indptr_spec: SegSpec,
    indices_spec: SegSpec,
    frontier_spec: SegSpec,
    lo: int,
    hi: int,
    stats=None,
) -> np.ndarray:
    """Push labels from one slice of the shared frontier buffer.

    Scatter-min of each frontier vertex's label onto its neighbours;
    returns the (sorted, unique) vertices whose label this slice lowered —
    the slice's share of the next frontier.
    """
    t0 = time.perf_counter()
    empty = np.empty(0, dtype=VERTEX_DTYPE)
    if hi <= lo:
        _record_stats(stats, t0)
        return empty
    pi = _attach_view(pi_spec)
    indptr = _attach_view(indptr_spec)
    indices = _attach_view(indices_spec)
    frontier = _attach_view(frontier_spec)[lo:hi]
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        _record_stats(stats, t0)
        return empty
    offsets = np.repeat(starts, counts) + segment_ranges(counts)
    dst = indices[offsets]
    cand = np.repeat(pi[frontier], counts)
    won = cand < pi[dst]
    if not won.any():
        _record_stats(stats, t0, items=total)
        return empty
    np.minimum.at(pi, dst[won], cand[won])
    changed = sorted_unique(dst[won]).astype(VERTEX_DTYPE, copy=False)
    _record_stats(stats, t0, items=total, aux=int(changed.shape[0]))
    return changed


def _task_bottom_up(
    pi_spec: SegSpec,
    indptr_spec: SegSpec,
    indices_spec: SegSpec,
    mask_spec: SegSpec,
    v_lo: int,
    v_hi: int,
    label: int,
    sentinel: int,
    stats=None,
) -> tuple[np.ndarray, int, int]:
    """Bottom-up BFS step over one block (see :func:`bottom_up_block`)."""
    t0 = time.perf_counter()
    if v_hi <= v_lo:
        _record_stats(stats, t0)
        return np.empty(0, dtype=VERTEX_DTYPE), 0, 0
    pi = _attach_view(pi_spec)
    indptr = _attach_view(indptr_spec)
    indices = _attach_view(indices_spec)
    mask = _attach_view(mask_spec)
    found, modeled, gathered = bottom_up_block(
        pi, indptr, indices, mask, v_lo, v_hi, label, sentinel
    )
    _record_stats(stats, t0, items=gathered, aux=int(found.shape[0]))
    return found, modeled, gathered


def _task_check_fix(
    pi_spec: SegSpec,
    indptr_spec: SegSpec,
    indices_spec: SegSpec,
    v_lo: int,
    v_hi: int,
    stats=None,
) -> bool:
    """Settle sweep over one block: re-link any edge whose endpoints ended
    in different trees.

    Run after a global compress barrier, so ``pi[u] != pi[v]`` genuinely
    means "not yet merged" (a lost scatter-min update, or a skipped slot
    whose sampled twin lost its update).  Returns True when the block had
    anything to fix, driving the backend's settle loop to a fixpoint.
    """
    t0 = time.perf_counter()
    if v_hi <= v_lo:
        _record_stats(stats, t0)
        return False
    pi = _attach_view(pi_spec)
    indptr = _attach_view(indptr_spec)
    indices = _attach_view(indices_spec)
    e_lo = int(indptr[v_lo])
    e_hi = int(indptr[v_hi])
    if e_hi <= e_lo:
        _record_stats(stats, t0)
        return False
    deg = np.diff(indptr[v_lo : v_hi + 1])
    src = np.repeat(np.arange(v_lo, v_hi, dtype=VERTEX_DTYPE), deg)
    dst = indices[e_lo:e_hi]
    bad = pi[src] != pi[dst]
    if not bad.any():
        _record_stats(stats, t0, items=e_hi - e_lo)
        return False
    link_batch(pi, src[bad], dst[bad])
    _record_stats(stats, t0, items=e_hi - e_lo, aux=int(bad.sum()))
    return True
