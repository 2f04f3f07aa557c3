"""Pluggable execution backends for the connectivity engine.

The paper's pipelines are built from a small set of primitives — link an
edge batch, compress the parent array, probe π for the giant component,
hook-and-shortcut — that admit four execution substrates:

- :class:`VectorizedBackend` — NumPy batch kernels
  (:func:`~repro.core.link.link_batch`,
  :func:`~repro.core.compress.compress_all`); the wall-clock performance
  implementation;
- :class:`SimulatedBackend` — generator kernels on a
  :class:`~repro.parallel.machine.SimulatedMachine`, with a preemption
  point before every shared access; the instrumented concurrent-semantics
  implementation that produces work/span statistics and memory traces;
- :class:`ProcessParallelBackend` — the vectorized substrate over a
  parent array in ``multiprocessing.shared_memory``, with the sweep
  primitives (hooking, propagation, compression, the BFS frontier steps)
  fanned out to a worker pool over contiguous CSR edge blocks
  (:mod:`repro.engine.partition`); Afforest's link phases stay on the
  in-process batch kernels, which measured faster than a per-block split;
- :class:`DistributedBackend` — simulated ranks that each own an edge
  shard and replicate π, exchanging changed-label deltas in BSP
  supersteps over :class:`~repro.distributed.comm.SimulatedComm`.

Each sampling and finish phase (:mod:`repro.engine.sampling`,
:mod:`repro.engine.finish`) is written *once* against
:class:`ExecutionBackend`; choosing the substrate is a constructor
argument, not a separate code path.  The process and distributed
backends subclass :class:`VectorizedBackend` and override only the
primitives their substrate runs differently.  Backend methods wrap their
work in spans of the bound :class:`~repro.obs.trace.Tracer`, so profiled
runs get a per-phase wall-time breakdown on any substrate.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Generator

import numpy as np

from repro.constants import (
    ITERATION_CAP_FACTOR,
    ITERATION_CAP_SLACK,
    LABEL_DTYPE_POLICIES,
    NARROW_LABEL_LIMIT,
    NARROW_VERTEX_DTYPE,
    VERTEX_DTYPE,
)
from repro.core.compress import compress_kernel
from repro.core.link import link_batch, link_kernel
from repro.core.sampling import approximate_largest_label
from repro.distributed import partition as _dpart
from repro.distributed.comm import SimulatedComm
from repro.engine import partition as _part
from repro.engine.bufferpool import BufferPool
from repro.engine.partition import (
    SharedVector,
    partition_csr_blocks,
    partition_ranges,
    preferred_start_method,
)
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph.csr import CSRGraph
from repro.nputil import segment_ranges, sorted_unique
from repro.obs.heartbeat import HeartbeatMonitor
from repro.obs.metrics import POW2_BUCKETS, RATIO_BUCKETS
from repro.obs.trace import Tracer
from repro.parallel.machine import KernelContext, SimulatedMachine
from repro.parallel.metrics import RunStats

__all__ = [
    "ExecutionBackend",
    "HOOKING_MODES",
    "PARTITION_MODES",
    "VectorizedBackend",
    "SimulatedBackend",
    "ProcessParallelBackend",
    "DistributedBackend",
    "backend_kinds",
    "make_backend",
    "resolve_label_dtype",
]

#: hooking variants accepted by :meth:`ExecutionBackend.fused_hook_jump`
#: (and the ``fastsv`` finish's ``hooking=`` plan parameter).
HOOKING_MODES = ("plain", "stochastic", "aggressive")


def resolve_label_dtype(n: int, policy: str = "auto") -> np.dtype:
    """The parent-array dtype for an ``n``-vertex run under ``policy``.

    ``auto`` narrows to :data:`~repro.constants.NARROW_VERTEX_DTYPE`
    whenever every storable value fits — vertex ids up to ``n - 1`` *and*
    the BFS pipelines' out-of-range sentinel ``n`` — and falls back to
    :data:`~repro.constants.VERTEX_DTYPE` above
    :data:`~repro.constants.NARROW_LABEL_LIMIT` (the overflow guard).
    ``wide`` always selects ``VERTEX_DTYPE``.  Narrowed labels never
    escape the engine: ``engine.run`` widens results back to
    ``VERTEX_DTYPE``, so the visible labeling is bit-identical.
    """
    if policy not in LABEL_DTYPE_POLICIES:
        raise ConfigurationError(
            f"unknown label dtype policy {policy!r}; "
            f"available: {list(LABEL_DTYPE_POLICIES)}"
        )
    if policy == "auto" and n <= NARROW_LABEL_LIMIT:
        return np.dtype(NARROW_VERTEX_DTYPE)
    return np.dtype(VERTEX_DTYPE)


# --------------------------------------------------------------------- #
# vectorized edge-batch helpers
# --------------------------------------------------------------------- #


def round_edges(graph: CSRGraph, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge batch of neighbour round ``r``: ``(v, N(v)[r])`` for every
    vertex with degree > r."""
    deg = np.asarray(graph.degree())
    verts = np.nonzero(deg > r)[0].astype(VERTEX_DTYPE)
    nbrs = graph.indices[graph.indptr[verts] + r]
    return verts, nbrs


def remaining_edges(
    graph: CSRGraph, verts: np.ndarray, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """All edge slots ``start..deg(v)-1`` of the given vertices, flattened."""
    indptr, indices = graph.indptr, graph.indices
    counts = indptr[verts + 1] - indptr[verts] - start
    counts = np.maximum(counts, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        return empty, empty
    src = np.repeat(verts, counts)
    offsets = np.repeat(indptr[verts] + start, counts) + segment_ranges(counts)
    return src, indices[offsets]


# --------------------------------------------------------------------- #
# simulated-machine kernels
# --------------------------------------------------------------------- #


def _init_kernel(
    ctx: KernelContext, v: int, pi: np.ndarray
) -> Generator[None, None, None]:
    """Initialisation phase: ``pi[v] <- v`` (one shared write per vertex)."""
    yield from ctx.write(pi, v, v)


def _link_pair(
    ctx: KernelContext, pi: np.ndarray, u: int, v: int
) -> Generator[None, None, None]:
    """Shared concurrent-link body (same loop as link_kernel)."""
    fake_src = (u,)
    fake_dst = (v,)
    yield from link_kernel(ctx, 0, pi, fake_src, fake_dst)


def _neighbor_link_kernel(
    ctx: KernelContext,
    v: int,
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    r: int,
) -> Generator[None, None, None]:
    """Neighbour-round kernel: link ``(v, N(v)[r])`` when degree permits.

    Graph-structure reads are not preemption points — only π is shared
    mutable state; the CSR arrays are immutable.
    """
    lo = int(indptr[v])
    if lo + r >= int(indptr[v + 1]):
        return
    w = int(indices[lo + r])
    yield from _link_pair(ctx, pi, v, w)


def _probe_kernel(
    ctx: KernelContext,
    i: int,
    pi: np.ndarray,
    probes: np.ndarray,
    out: np.ndarray,
) -> Generator[None, None, None]:
    """Component-search phase: read π at one random probe position."""
    out[i] = yield from ctx.read(pi, int(probes[i]))


def _final_link_kernel(
    ctx: KernelContext,
    v: int,
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    start: int,
    largest: int | None,
    counters: dict,
) -> Generator[None, None, None]:
    """Final phase kernel: skip check then link remaining neighbours."""
    if largest is not None:
        label = yield from ctx.read(pi, v)
        if label == largest:
            counters["skipped"] += max(
                int(indptr[v + 1]) - int(indptr[v]) - start, 0
            )
            return
    lo = int(indptr[v]) + start
    hi = int(indptr[v + 1])
    for e in range(lo, hi):
        counters["final"] += 1
        yield from _link_pair(ctx, pi, v, int(indices[e]))


def _hook_kernel(
    ctx: KernelContext,
    e: int,
    pi: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    changed: dict,
) -> Generator[None, None, None]:
    """SV hook for one directed edge, concurrent semantics.

    The hook is the Fig. 1 line-8 assignment ``π(π(v)) <- π(u)`` guarded to
    roots and performed with CAS; losers simply retry next outer iteration,
    as in the original algorithm.
    """
    u = int(src[e])
    v = int(dst[e])
    cu = yield from ctx.read(pi, u)
    cv = yield from ctx.read(pi, v)
    if cu < cv:
        pcv = yield from ctx.read(pi, cv)
        if pcv == cv:
            ok = yield from ctx.cas(pi, cv, cv, cu)
            if ok:
                changed["flag"] = True


def _shortcut_kernel(
    ctx: KernelContext, v: int, pi: np.ndarray
) -> Generator[None, None, None]:
    """One single-step shortcut: ``pi[v] <- pi[pi[v]]`` (no fixpoint loop)."""
    parent = yield from ctx.read(pi, v)
    grand = yield from ctx.read(pi, parent)
    if grand != parent:
        yield from ctx.write(pi, v, grand)


def _fill_kernel(
    ctx: KernelContext, v: int, pi: np.ndarray, value: int
) -> Generator[None, None, None]:
    """Init phase for the BFS pipelines: ``pi[v] <- sentinel``."""
    yield from ctx.write(pi, v, int(value))


def _cas_min(
    ctx: KernelContext, pi: np.ndarray, v: int, cand: int
) -> Generator[None, None, bool]:
    """Atomic-min of ``cand`` into ``pi[v]`` via a CAS retry loop; True
    when this kernel's write landed."""
    while True:
        cur = yield from ctx.read(pi, v)
        if cand >= cur:
            return False
        ok = yield from ctx.cas(pi, v, cur, cand)
        if ok:
            return True


def _min_label_kernel(
    ctx: KernelContext,
    e: int,
    pi: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    changed: dict,
) -> Generator[None, None, None]:
    """Label-propagation edge kernel: atomic-min of π(u) into π(v)."""
    u = int(src[e])
    v = int(dst[e])
    cand = yield from ctx.read(pi, u)
    won = yield from _cas_min(ctx, pi, v, cand)
    if won:
        changed["count"] += 1


def _frontier_push_kernel(
    ctx: KernelContext,
    u: int,
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    changed: set,
) -> Generator[None, None, None]:
    """Push one frontier vertex's label onto all its neighbours."""
    cand = yield from ctx.read(pi, u)
    lo = int(indptr[u])
    hi = int(indptr[u + 1])
    for e in range(lo, hi):
        v = int(indices[e])
        won = yield from _cas_min(ctx, pi, v, cand)
        if won:
            changed.add(v)


def _bottom_up_kernel(
    ctx: KernelContext,
    v: int,
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    in_frontier: np.ndarray,
    label: int,
    counters: dict,
    found: list,
) -> Generator[None, None, None]:
    """Pull step for one unvisited vertex: scan neighbours, stop at the
    first frontier hit (the frontier mask is parent-owned and read-only
    for the duration of the step, so it is not a preemption point)."""
    lo = int(indptr[v])
    hi = int(indptr[v + 1])
    for e in range(lo, hi):
        counters["edges"] += 1
        if in_frontier[int(indices[e])]:
            yield from ctx.write(pi, v, int(label))
            found.append(int(v))
            return


# --------------------------------------------------------------------- #
# backend interface
# --------------------------------------------------------------------- #


class ExecutionBackend:
    """Primitive operations a connectivity pipeline is written against.

    Subclasses implement the primitives on a concrete substrate.  Methods
    that have a meaningful convergence statistic on the vectorized
    substrate (rounds of ``link_batch``, passes of ``compress_all``)
    return it; substrates without such a notion return ``None`` and the
    pipeline skips the bookkeeping.
    """

    #: registry-facing backend kind ("vectorized" / "simulated").
    kind = "abstract"

    def __init__(self, *, label_dtype: str = "auto") -> None:
        if label_dtype not in LABEL_DTYPE_POLICIES:
            raise ConfigurationError(
                f"unknown label dtype policy {label_dtype!r}; "
                f"available: {list(LABEL_DTYPE_POLICIES)}"
            )
        self.bind(Tracer(False))
        #: label-width policy (see :func:`resolve_label_dtype`).
        self.label_dtype = label_dtype
        #: reusable scratch buffers for the hot-path kernels; fresh
        #: allocations land in the ``bytes_allocated`` counter.
        self.pool = BufferPool(self._count_alloc)
        # Identity-cached flat edge arrays of the last graph seen by
        # propagate_pass (LP sweeps reuse one batch across all rounds).
        self._edge_graph: CSRGraph | None = None
        self._edge_arrays: tuple[np.ndarray, np.ndarray] | None = None

    def bind(
        self, tracer: Tracer, heartbeat: HeartbeatMonitor | None = None
    ) -> None:
        """Attach the per-run tracer and live heartbeat (done by
        ``engine.run``)."""
        self.tracer = tracer
        self.heartbeat = heartbeat

    def beat(
        self,
        phase: str,
        *,
        frontier: int | None = None,
        changed: int | None = None,
    ) -> None:
        """Report a finished pipeline round to the live heartbeat, if any."""
        if self.heartbeat is not None:
            self.heartbeat.beat(phase, frontier=frontier, changed=changed)

    def _count_alloc(self, nbytes: int) -> None:
        """Buffer-pool allocation callback -> ``bytes_allocated`` counter."""
        self.tracer.metrics.counter("bytes_allocated").inc(int(nbytes))

    def _label_dtype(self, n: int) -> np.dtype:
        """Resolve (and record) the parent-array dtype for an ``n``-vertex
        run: the ``label_dtype_bits`` gauge makes the narrowing decision
        visible in profiled runs."""
        dtype = resolve_label_dtype(n, self.label_dtype)
        if self.tracer.metrics.enabled:
            self.tracer.metrics.gauge("label_dtype_bits").set(
                dtype.itemsize * 8
            )
        return dtype

    def _edges(self, graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        """The graph's flat ``(src, dst)`` directed-edge arrays, cached."""
        if self._edge_graph is not graph:
            self._edge_graph = graph
            self._edge_arrays = graph.edge_array()
        assert self._edge_arrays is not None
        return self._edge_arrays

    # -- primitives ------------------------------------------------------ #

    def init_labels(
        self, n: int, *, phase: str = "I", fill: int | None = None
    ) -> np.ndarray:
        """Fresh parent array of ``n`` vertices: self-pointing by default,
        or constant ``fill`` (the BFS pipelines' unvisited sentinel)."""
        raise NotImplementedError

    def link_edges(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> int | None:
        """Link every edge of the batch into π."""
        raise NotImplementedError

    def link_neighbor_round(
        self, pi: np.ndarray, graph: CSRGraph, r: int, *, phase: str
    ) -> int | None:
        """Link ``(v, N(v)[r])`` for every vertex with degree > r."""
        raise NotImplementedError

    def link_remaining(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        start: int,
        largest: int | None,
        *,
        phase: str,
    ) -> tuple[int, int, int | None]:
        """Afforest final phase: link slots ``start..`` of every vertex not
        in the ``largest`` component; returns (edges linked, edges skipped,
        link rounds or None)."""
        raise NotImplementedError

    def compress(self, pi: np.ndarray, *, phase: str) -> int | None:
        """Compress every tree in π to depth one."""
        raise NotImplementedError

    def shortcut_step(self, pi: np.ndarray, *, phase: str) -> None:
        """A single ``pi <- pi[pi]`` shortcut step (no fixpoint loop)."""
        raise NotImplementedError

    def find_largest(
        self,
        pi: np.ndarray,
        sample_size: int,
        rng: np.random.Generator,
        *,
        phase: str,
    ) -> int:
        """Probable giant-component label from ``sample_size`` π probes."""
        raise NotImplementedError

    def hook_pass(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> bool:
        """One Shiloach–Vishkin hook pass; True if any parent changed."""
        raise NotImplementedError

    # -- frontier / label primitives ------------------------------------- #

    def propagate_pass(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """One synchronous min-label sweep over every directed edge.

        Returns the number of edges whose source label beat the
        destination label — zero certifies the fixpoint (a pass reporting
        no change performed no writes on any substrate).
        """
        raise NotImplementedError

    def fused_hook_jump(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        *,
        hooking: str = "plain",
        phase: str,
    ) -> int:
        """One fused FastSV round: min-label hook sweep + pointer jump.

        Returns the hook sweep's change count.  When the sweep reports no
        change the trailing jump is *skipped* (counted as
        ``rounds_skipped``): a zero-change sweep performs no writes on any
        substrate, and a propagation fixpoint over a symmetric edge set
        means every component carries a constant label — necessarily its
        minimum vertex id — so π is already flat and ``π ← π[π]`` would be
        the identity.  Each fused round bumps ``fused_passes``.

        ``hooking`` selects the FastSV hooking variant: ``plain`` is the
        classic source→destination min-sweep; ``stochastic`` additionally
        hooks each edge's *parent-of-destination* to the source's
        grandparent label; ``aggressive`` hooks the destination itself to
        the grandparent label.  All variants write only monotone minima of
        component-internal labels, so they converge to the same component
        minima as ``plain``.  The base implementation composes the two
        timed primitives and runs the ``plain`` sweep regardless of the
        requested variant (the extra hooks are a vectorized-substrate
        acceleration, not a semantic change); the vectorized backend
        overrides this with a single-kernel fused implementation.
        """
        changed = self.propagate_pass(pi, graph, phase=phase)
        if changed:
            self.shortcut_step(pi, phase=phase)
        else:
            self.tracer.metrics.counter("rounds_skipped").inc()
        self.tracer.metrics.counter("fused_passes").inc()
        return changed

    def frontier_expand(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        frontier: np.ndarray,
        *,
        phase: str,
    ) -> np.ndarray:
        """Push labels from the active frontier onto its neighbours.

        Returns the next frontier: the sorted unique vertices whose label
        the push lowered.
        """
        raise NotImplementedError

    def bottom_up_pass(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        label: int,
        sentinel: int,
        *,
        phase: str,
    ) -> tuple[np.ndarray, int, int]:
        """Pull step: every vertex still carrying ``sentinel`` scans its
        neighbours and adopts ``label`` when one is in the frontier
        (boolean/uint8 ``in_frontier`` mask over all vertices).

        Returns ``(next frontier, modeled edges, gathered edges)`` —
        *modeled* counts the early-exit scan a real machine performs
        (stop at the first frontier hit), *gathered* whatever the
        substrate actually touched.
        """
        raise NotImplementedError

    def propagate_settle(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """Repair sweeps after an asynchronous/data-driven propagation.

        Substrates whose min-writes are atomic need none (the default:
        zero passes).  The process backend overrides this with full
        synchronous sweeps until a pass reports no change, repairing
        updates lost to non-atomic scatter-min races.
        """
        return 0

    def record_frontier(self, size: int, *, phase: str) -> None:
        """Observe an active-frontier size into the ``frontier_size``
        histogram (no-op while metrics are disabled)."""
        if self.tracer.metrics.enabled:
            self.tracer.metrics.histogram(
                "frontier_size", POW2_BUCKETS
            ).observe(size)

    def run_stats(self) -> RunStats | None:
        """Work/span statistics of the substrate, when it collects any."""
        return None

    # -- lifecycle ------------------------------------------------------- #

    def detach_labels(self, pi: np.ndarray) -> np.ndarray:
        """Turn a π produced by this backend into an independently owned
        array.  In-process substrates return it unchanged; shared-memory
        substrates copy it out so the segment can be reclaimed."""
        return pi

    def close(self) -> None:
        """Release substrate resources (worker pools, shared segments).

        A no-op for in-process backends; safe to call repeatedly.
        """


class VectorizedBackend(ExecutionBackend):
    """NumPy batch-kernel substrate: the wall-clock performance path.

    Links resolve conflicts by scatter-min (the batch analogue of "the
    CAS writing the smallest label wins"), compression is pointer
    doubling, and the giant-component search reads π directly.
    """

    kind = "vectorized"

    def init_labels(
        self, n: int, *, phase: str = "I", fill: int | None = None
    ) -> np.ndarray:
        """Identity (or constant-``fill``) parent array; not a timed
        phase — a single ``arange``/``full``."""
        dtype = self._label_dtype(n)
        if fill is not None:
            return np.full(n, fill, dtype=dtype)
        return np.arange(n, dtype=dtype)

    def link_edges(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> int:
        """Batch link; returns the number of link rounds executed."""
        with self.tracer.span(phase):
            return link_batch(pi, src, dst)

    def link_neighbor_round(
        self, pi: np.ndarray, graph: CSRGraph, r: int, *, phase: str
    ) -> int:
        """Gather round-``r`` neighbour slots, then batch-link them."""
        src, dst = round_edges(graph, r)
        with self.tracer.span(phase):
            return link_batch(pi, src, dst)

    def link_remaining(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        start: int,
        largest: int | None,
        *,
        phase: str,
    ) -> tuple[int, int, int]:
        """Gather the non-skipped remaining slots and batch-link them.

        Skipped work is computed analytically from the degrees of the
        giant component's vertices — those slots are never materialised.
        """
        if largest is not None:
            verts = np.nonzero(pi != largest)[0].astype(VERTEX_DTYPE)
            deg = np.asarray(graph.degree())
            skipped_verts = np.nonzero(pi == largest)[0]
            skipped = int(np.maximum(deg[skipped_verts] - start, 0).sum())
        else:
            verts = np.arange(pi.shape[0], dtype=VERTEX_DTYPE)
            skipped = 0
        with self.tracer.span(f"{phase}-gather"):
            src, dst = remaining_edges(graph, verts, start)
        with self.tracer.span(phase):
            rounds = link_batch(pi, src, dst)
        return int(src.shape[0]), skipped, rounds

    def _pointer_jump(self, pi: np.ndarray) -> np.ndarray:
        """One ``π ← π[π]`` jump through the pooled scratch buffer.

        Returns the scratch view still holding the post-jump values (so
        ``compress`` can fixpoint-test without another gather).
        """
        nxt = self.pool.get("jump", int(pi.shape[0]), pi.dtype)
        np.take(pi, pi, out=nxt)
        pi[:] = nxt
        return nxt

    def compress(self, pi: np.ndarray, *, phase: str) -> int:
        """Pointer-doubling compression; returns the pass count.

        Identical to :func:`~repro.core.compress.compress_all`, but the
        per-pass ``π[π]`` gather goes through the pooled scratch buffer
        instead of allocating ``O(n)`` fresh memory every pass.
        """
        with self.tracer.span(phase):
            passes = 0
            cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
            nxt = self.pool.get("jump", int(pi.shape[0]), pi.dtype)
            while True:
                np.take(pi, pi, out=nxt)
                if np.array_equal(nxt, pi):
                    return passes
                pi[:] = nxt
                passes += 1
                if passes > cap:
                    raise ConvergenceError(
                        f"compress_all exceeded {cap} passes — cycle in pi?"
                    )

    def shortcut_step(self, pi: np.ndarray, *, phase: str) -> None:
        """The original SV single shortcut: ``pi <- pi[pi]`` once."""
        with self.tracer.span(phase):
            self._pointer_jump(pi)

    def find_largest(
        self,
        pi: np.ndarray,
        sample_size: int,
        rng: np.random.Generator,
        *,
        phase: str,
    ) -> int:
        """Mode of ``sample_size`` direct probes of π."""
        with self.tracer.span(phase):
            return approximate_largest_label(pi, sample_size, rng=rng)

    def hook_pass(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> bool:
        """One vectorized hook pass; True if any parent changed.

        Conflicting hooks onto the same root resolve by scatter-min — the
        batch analogue of "one competing edge's write wins per iteration"
        (Fig. 1 commentary), biased to the smallest label exactly like the
        CAS variant.
        """
        pool = self.pool
        with self.tracer.span(phase):
            m = int(src.shape[0])
            cu = pool.take(pi, src, "hook-cu")
            cv = pool.take(pi, dst, "hook-cv")
            pcv = pool.take(pi, cv, "hook-pcv")
            mask = pool.get("hook-mask", m, np.bool_)
            np.less(cu, cv, out=mask)
            root = pool.get("hook-root", m, np.bool_)
            np.equal(pcv, cv, out=root)
            mask &= root
            if not mask.any():
                return False
            if self.tracer.metrics.enabled:
                # Label distance each winning hook covers: the Table II
                # convergence signal (large early, shrinking per pass).
                self.tracer.metrics.histogram(
                    "hook_distance", POW2_BUCKETS
                ).observe_many(cv[mask] - cu[mask])
            np.minimum.at(pi, cv[mask], cu[mask])
            return True

    def propagate_pass(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """One scatter-min sweep over the flat edge arrays.

        The masked form writes only winning candidates; since labels only
        decrease within a pass, a candidate that did not beat the
        pre-pass destination can never win inside the same ``at`` call,
        so the final π is identical to the unmasked sweep.  All edge-sized
        gathers go through the buffer pool, so repeated sweeps allocate
        nothing.
        """
        src, dst = self._edges(graph)
        with self.tracer.span(phase):
            return self._min_sweep(pi, src, dst)

    def _min_sweep(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> int:
        """Pooled masked scatter-min of ``pi[src]`` into ``pi[dst]``;
        returns the win count (no timer: callers wrap it)."""
        pool = self.pool
        m = int(src.shape[0])
        cand = pool.take(pi, src, "prop-cand")
        down = pool.take(pi, dst, "prop-down")
        won = pool.get("prop-won", m, np.bool_)
        np.less(cand, down, out=won)
        changed = int(np.count_nonzero(won))
        if changed:
            np.minimum.at(pi, dst[won], cand[won])
        return changed

    def fused_hook_jump(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        *,
        hooking: str = "plain",
        phase: str,
    ) -> int:
        """Single-kernel fused FastSV round (see the base-class contract).

        One timed span covers the hook sweep, the optional
        stochastic/aggressive grandparent hooks, and the pointer jump; the
        jump is skipped (``rounds_skipped``) when nothing changed, and
        every edge- or vertex-sized intermediate lives in the buffer pool.

        The extra variants gather each source's *grandparent* label
        ``π[π[src]]`` after the plain sweep and scatter-min it into the
        destination's parent (``stochastic``) or the destination itself
        (``aggressive``).  Both targets only ever receive smaller labels
        from their own component (``π[π[u]] ≤ π[u] ≤ u`` and labels are
        component-internal), so the converged fixpoint — every component
        flat at its minimum id — is unchanged; the variants only shorten
        the path there on high-diameter graphs.
        """
        src, dst = self._edges(graph)
        pool = self.pool
        with self.tracer.span(phase):
            changed = self._min_sweep(pi, src, dst)
            if changed and hooking != "plain":
                # Grandparent candidates, read *after* the plain sweep so
                # freshly lowered parents propagate within the round.
                parent = pool.take(pi, src, "fuse-parent")
                grand = pool.take(pi, parent, "fuse-grand")
                if hooking == "aggressive":
                    changed += self._scatter_min(pi, dst, grand)
                else:  # stochastic: hook the destination's parent
                    target = pool.take(pi, dst, "fuse-target")
                    changed += self._scatter_min(pi, target, grand)
            if changed:
                self._pointer_jump(pi)
            else:
                self.tracer.metrics.counter("rounds_skipped").inc()
            self.tracer.metrics.counter("fused_passes").inc()
            return changed

    def _scatter_min(
        self, pi: np.ndarray, target: np.ndarray, cand: np.ndarray
    ) -> int:
        """Masked ``pi[target] min= cand`` via pooled buffers; win count."""
        pool = self.pool
        cur = pool.take(pi, target, "fuse-cur")
        won = pool.get("fuse-won", int(target.shape[0]), np.bool_)
        np.less(cand, cur, out=won)
        wins = int(np.count_nonzero(won))
        if wins:
            np.minimum.at(pi, target[won], cand[won])
        return wins

    def frontier_expand(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        frontier: np.ndarray,
        *,
        phase: str,
    ) -> np.ndarray:
        """Gather the frontier's neighbour slots and scatter-min onto them."""
        with self.tracer.span(phase):
            empty = np.empty(0, dtype=VERTEX_DTYPE)
            if frontier.shape[0] == 0:
                return empty
            indptr, indices = graph.indptr, graph.indices
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                return empty
            offsets = np.repeat(starts, counts) + segment_ranges(counts)
            dst = indices[offsets]
            cand = np.repeat(pi[frontier], counts)
            won = cand < pi[dst]
            if not won.any():
                return empty
            np.minimum.at(pi, dst[won], cand[won])
            return sorted_unique(dst[won]).astype(VERTEX_DTYPE, copy=False)

    def bottom_up_pass(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        label: int,
        sentinel: int,
        *,
        phase: str,
    ) -> tuple[np.ndarray, int, int]:
        """Segmented first-hit pull over all unvisited vertices."""
        with self.tracer.span(phase):
            return _part.bottom_up_block(
                pi,
                graph.indptr,
                graph.indices,
                in_frontier,
                0,
                int(pi.shape[0]),
                label,
                sentinel,
            )


class SimulatedBackend(ExecutionBackend):
    """Simulated-machine substrate: concurrent semantics, instrumented.

    Every primitive is a ``parallel_for`` of generator kernels on the
    wrapped :class:`~repro.parallel.machine.SimulatedMachine`; shared
    accesses are preemption points, CAS conflicts are real, and the
    machine accumulates per-phase work/span statistics (``machine.stats``)
    plus an optional memory trace.
    """

    kind = "simulated"

    def __init__(
        self, machine: SimulatedMachine, *, label_dtype: str = "auto"
    ) -> None:
        super().__init__(label_dtype=label_dtype)
        self.machine = machine

    def init_labels(
        self, n: int, *, phase: str = "I", fill: int | None = None
    ) -> np.ndarray:
        """Init phase ``I``: every vertex writes its own π slot (or the
        constant ``fill`` sentinel)."""
        pi = np.empty(n, dtype=self._label_dtype(n))
        with self.tracer.span(phase):
            if fill is not None:
                self.machine.parallel_for(
                    n, _fill_kernel, pi, int(fill), phase=phase
                )
            else:
                self.machine.parallel_for(n, _init_kernel, pi, phase=phase)
        return pi

    def link_edges(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> None:
        """Concurrent link of the batch, one kernel per edge."""
        with self.tracer.span(phase):
            self.machine.parallel_for(
                int(src.shape[0]), link_kernel, pi, src, dst, phase=phase
            )
        return None

    def link_neighbor_round(
        self, pi: np.ndarray, graph: CSRGraph, r: int, *, phase: str
    ) -> None:
        """Concurrent neighbour round, one kernel per vertex."""
        with self.tracer.span(phase):
            self.machine.parallel_for(
                pi.shape[0],
                _neighbor_link_kernel,
                pi,
                graph.indptr,
                graph.indices,
                r,
                phase=phase,
            )
        return None

    def link_remaining(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        start: int,
        largest: int | None,
        *,
        phase: str,
    ) -> tuple[int, int, None]:
        """Concurrent final phase with the per-vertex skip check."""
        counters = {"skipped": 0, "final": 0}
        with self.tracer.span(phase):
            self.machine.parallel_for(
                pi.shape[0],
                _final_link_kernel,
                pi,
                graph.indptr,
                graph.indices,
                start,
                largest,
                counters,
                phase=phase,
            )
        return counters["final"], counters["skipped"], None

    def compress(self, pi: np.ndarray, *, phase: str) -> None:
        """Concurrent per-vertex compression to the root."""
        with self.tracer.span(phase):
            self.machine.parallel_for(
                pi.shape[0], compress_kernel, pi, phase=phase
            )
        return None

    def shortcut_step(self, pi: np.ndarray, *, phase: str) -> None:
        """Concurrent single-step shortcut of every vertex."""
        with self.tracer.span(phase):
            self.machine.parallel_for(
                pi.shape[0], _shortcut_kernel, pi, phase=phase
            )

    def find_largest(
        self,
        pi: np.ndarray,
        sample_size: int,
        rng: np.random.Generator,
        *,
        phase: str,
    ) -> int:
        """Probe phase ``F``: concurrent reads of π at random positions."""
        n = pi.shape[0]
        probes = rng.integers(0, n, size=min(sample_size, max(n, 1)))
        out = np.empty(probes.shape[0], dtype=VERTEX_DTYPE)
        with self.tracer.span(phase):
            self.machine.parallel_for(
                probes.shape[0], _probe_kernel, pi, probes, out, phase=phase
            )
        uniq, counts = sorted_unique(out, return_counts=True)
        return int(uniq[np.argmax(counts)])

    def hook_pass(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> bool:
        """Concurrent CAS hook pass over every directed edge."""
        changed = {"flag": False}
        with self.tracer.span(phase):
            self.machine.parallel_for(
                int(src.shape[0]), _hook_kernel, pi, src, dst, changed,
                phase=phase,
            )
        return changed["flag"]

    def propagate_pass(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """Concurrent min-label sweep, one CAS-min kernel per edge.

        The CAS retry loop makes each edge's min-write atomic, so no
        update is ever lost — the sweep converges in the same number of
        certifying passes as the synchronous substrates.
        """
        src, dst = self._edges(graph)
        changed = {"count": 0}
        with self.tracer.span(phase):
            self.machine.parallel_for(
                int(src.shape[0]),
                _min_label_kernel,
                pi,
                src,
                dst,
                changed,
                phase=phase,
            )
        return changed["count"]

    def frontier_expand(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        frontier: np.ndarray,
        *,
        phase: str,
    ) -> np.ndarray:
        """Concurrent push, one kernel per frontier vertex."""
        changed: set = set()
        with self.tracer.span(phase):
            if frontier.shape[0]:
                self.machine.parallel_for(
                    frontier,
                    _frontier_push_kernel,
                    pi,
                    graph.indptr,
                    graph.indices,
                    changed,
                    phase=phase,
                )
        out = np.fromiter(sorted(changed), dtype=VERTEX_DTYPE, count=len(changed))
        return out

    def bottom_up_pass(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        label: int,
        sentinel: int,
        *,
        phase: str,
    ) -> tuple[np.ndarray, int, int]:
        """Concurrent pull, one early-exit scan kernel per unvisited
        vertex.  The kernel's early exit is real, so modeled == gathered
        on this substrate."""
        unvisited = np.nonzero(pi == sentinel)[0].astype(VERTEX_DTYPE)
        counters = {"edges": 0}
        found: list = []
        with self.tracer.span(phase):
            if unvisited.shape[0]:
                self.machine.parallel_for(
                    unvisited,
                    _bottom_up_kernel,
                    pi,
                    graph.indptr,
                    graph.indices,
                    in_frontier,
                    int(label),
                    counters,
                    found,
                    phase=phase,
                )
        next_frontier = np.asarray(sorted(found), dtype=VERTEX_DTYPE)
        return next_frontier, counters["edges"], counters["edges"]

    def run_stats(self) -> RunStats:
        """The machine's accumulated work/span statistics."""
        return self.machine.stats


class ProcessParallelBackend(VectorizedBackend):
    """Real multi-core substrate: OS processes over shared-memory π.

    The parent array lives in a ``multiprocessing.shared_memory`` segment;
    the CSR arrays (and flat edge batches) are mirrored into further
    segments once per graph; and a persistent worker pool executes the
    sweep primitives — SV hooking, min-label propagation and its settle
    sweeps, compress, shortcut, and the BFS frontier steps — as one task
    per contiguous CSR edge block
    (:func:`~repro.engine.partition.partition_csr_blocks`) or per π range.
    Hooks are lock-free scatter-min writes — monotone toward smaller
    labels, so a racing write can lose a merge but never corrupt the
    forest — and every phase ends at a global barrier (the pool
    ``starmap`` return).  A lost write implies its block reported a
    change, so the "full pass with no change" convergence tests stay
    sound.

    Afforest's link phases and the giant-component probe are inherited
    from :class:`VectorizedBackend`: they run the batch link kernels in
    the parent process, directly on the shared π.  Workers have no atomic
    write-min, so a per-block link can drop a hook and would need a
    repair sweep over every edge — the edges the giant-component skip
    exists to avoid; the parent-side kernels measure faster (see
    ``docs/algorithms.md``).

    When a run is traced, every barrier also collects *per-task worker
    telemetry*: each block task records its start/end timestamps, pid,
    and work counters into a shared-memory stats segment, and the parent
    merges the rows into the trace as per-worker spans (plus a
    ``block_imbalance`` histogram), so ``compare --profile`` and the
    Chrome export can show worker skew.

    Labels returned through :func:`repro.engine.run` are detached (copied
    out of shared memory) automatically.  When driving pipelines directly,
    call :meth:`close` (or use the backend as a context manager) once the
    labels have been copied; segments whose views escaped are unlinked but
    stay mapped until the last view dies.
    """

    kind = "process"

    # The inherited single-kernel round would run in the parent process;
    # the composed one dispatches both halves to the workers.
    fused_hook_jump = ExecutionBackend.fused_hook_jump

    def __init__(
        self,
        workers: int | None = None,
        *,
        label_dtype: str = "auto",
    ) -> None:
        super().__init__(label_dtype=label_dtype)
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers or max(1, min(os.cpu_count() or 1, 8))
        self._pool = None
        self._pi: SharedVector | None = None
        # Cached per-graph shared mirrors; the strong graph reference keeps
        # the id() key stable for the cache's lifetime.
        self._graph: CSRGraph | None = None
        self._graph_segs: tuple[SharedVector, SharedVector] | None = None
        self._blocks: list[_part.EdgeBlock] = []
        # Reusable flat edge buffers (SV hook batches).
        self._src_buf: SharedVector | None = None
        self._dst_buf: SharedVector | None = None
        # Reusable frontier buffer + uint8 frontier mask (BFS pipelines).
        self._frontier_buf: SharedVector | None = None
        self._mask_buf: SharedVector | None = None
        self._src_key: np.ndarray | None = None
        self._dst_key: np.ndarray | None = None
        # Per-task telemetry rows (float64) + pid -> track-name mapping,
        # only materialised while a traced run is active.
        self._stats: SharedVector | None = None
        self._worker_tracks: dict[int, str] = {}

    # -- pool / segment management --------------------------------------- #

    def _ensure_pool(self):
        if self._pool is None:
            ctx = multiprocessing.get_context(preferred_start_method())
            self._pool = ctx.Pool(processes=self.workers)
        return self._pool

    def _starmap(self, fn, tasks: list[tuple]) -> list:
        return self._ensure_pool().starmap(fn, tasks)

    # -- per-worker telemetry --------------------------------------------- #

    def _ensure_stats(self, rows: int) -> SharedVector:
        need = rows * _part.STATS_FIELDS
        if self._stats is None or self._stats.length < need:
            self._release(self._stats)
            self._stats = SharedVector(max(need, 64), dtype=np.float64)
        return self._stats

    def _barrier(self, fn, tasks: list[tuple], phase: str) -> list:
        """One ``starmap`` barrier, with per-task telemetry when tracing.

        Untraced runs dispatch the tasks untouched (workers see
        ``stats=None``).  Traced runs append a ``(stats spec, slot)``
        handle to every task; workers record start/end timestamps, pid,
        and work counters into their row of the shared stats segment, and
        after the barrier the rows are merged into the trace as worker-
        track spans nested under the open phase span, plus a
        ``block_imbalance`` histogram sample (max/mean task duration).

        With a live heartbeat attached the dispatch goes asynchronous:
        workers stamp their stats rows as each block finishes, so the
        parent polls the shared segment *during* the barrier and emits a
        ``block`` heartbeat event per completed task while siblings are
        still running — post-barrier merging into the trace is unchanged.
        """
        tracer = self.tracer
        heartbeat = self.heartbeat
        if not tracer.enabled and heartbeat is None:
            return self._starmap(fn, tasks)
        stats = self._ensure_stats(len(tasks))
        stats.array[: len(tasks) * _part.STATS_FIELDS] = 0.0
        spec = stats.spec
        tagged = [(*t, (spec, i)) for i, t in enumerate(tasks)]
        if heartbeat is not None:
            out = self._stream_barrier(
                fn, tagged, stats.array, len(tasks), phase, heartbeat
            )
        else:
            out = self._starmap(fn, tagged)
        if tracer.enabled:
            self._merge_worker_stats(phase, stats.array, len(tasks))
        return out

    def _stream_barrier(
        self,
        fn,
        tagged: list[tuple],
        rows: np.ndarray,
        num_tasks: int,
        phase: str,
        heartbeat,
    ) -> list:
        """Async barrier that surfaces block completions as they land.

        Worker tasks stamp their stats row (``t1 > 0``) as their last
        action, so a completed row in the shared segment is safe to read
        before the pool's own result arrives; every task is reported
        exactly once (stragglers in the final sweep after the join).
        """
        async_result = self._ensure_pool().starmap_async(fn, tagged)
        fields = _part.STATS_FIELDS
        reported = [False] * num_tasks

        def drain() -> None:
            for i in range(num_tasks):
                if reported[i]:
                    continue
                t0, t1, _pid, items, _aux = rows[
                    i * fields : (i + 1) * fields
                ]
                if t1 > 0.0:
                    reported[i] = True
                    heartbeat.block(
                        phase,
                        block=i,
                        seconds=float(t1 - t0),
                        items=int(items),
                    )

        while not async_result.ready():
            drain()
            async_result.wait(0.002)
        out = async_result.get()
        drain()
        return out

    def _merge_worker_stats(
        self, phase: str, rows: np.ndarray, num_tasks: int
    ) -> None:
        tracer = self.tracer
        fields = _part.STATS_FIELDS
        durations: list[float] = []
        for i in range(num_tasks):
            t0, t1, pid, items, aux = rows[i * fields : (i + 1) * fields]
            if t1 <= 0.0:  # task body never ran (defensive; starmap raises)
                continue
            track = self._worker_tracks.setdefault(
                int(pid), f"worker-{len(self._worker_tracks)}"
            )
            tracer.add_span(
                phase,
                float(t0),
                float(t1),
                track=track,
                block=i,
                items=int(items),
                aux=int(aux),
            )
            durations.append(float(t1) - float(t0))
        if len(durations) >= 2:
            mean = sum(durations) / len(durations)
            if mean > 0:
                self.tracer.metrics.histogram(
                    "block_imbalance", RATIO_BUCKETS
                ).observe(max(durations) / mean)

    def _release(self, vec: SharedVector | None) -> None:
        if vec is not None:
            _part._evict_attached(vec.shm.name)
            vec.release()

    def _graph_specs(self, graph: CSRGraph):
        """Shared mirrors of the graph's CSR arrays (+ its edge blocks)."""
        if self._graph is not graph:
            if self._graph_segs is not None:
                for seg in self._graph_segs:
                    self._release(seg)
            ip = SharedVector(graph.indptr.shape[0])
            ip.array[:] = graph.indptr
            ix = SharedVector(max(graph.indices.shape[0], 1))
            ix.array[: graph.indices.shape[0]] = graph.indices
            self._graph = graph
            self._graph_segs = (ip, ix)
            self._blocks = partition_csr_blocks(graph.indptr, self.workers)
        ip, ix = self._graph_segs  # type: ignore[misc]
        return ip.spec, ix.spec, self._blocks

    def _grow_buffer(
        self, buf: SharedVector | None, length: int
    ) -> SharedVector:
        if buf is None or buf.length < length:
            self._release(buf)
            buf = SharedVector(max(length, 1024))
            # Segment creation is a real allocation: report it like the
            # BufferPool does, so ``bytes_allocated`` covers the shared
            # edge/frontier scratch too (a warm backend reports zero).
            self._count_alloc(buf.array.nbytes)
        return buf

    def _load_edges(self, src: np.ndarray, dst: np.ndarray):
        """Copy a flat edge batch into the shared buffers (skipped when the
        exact same arrays were loaded last — SV reuses one batch across all
        its iterations)."""
        if src is self._src_key and dst is self._dst_key:
            return self._src_buf.spec, self._dst_buf.spec  # type: ignore[union-attr]
        m = int(src.shape[0])
        self._src_buf = self._grow_buffer(self._src_buf, m)
        self._dst_buf = self._grow_buffer(self._dst_buf, m)
        self._src_buf.array[:m] = src
        self._dst_buf.array[:m] = dst
        self._src_key = src
        self._dst_key = dst
        return self._src_buf.spec, self._dst_buf.spec

    # -- primitives ------------------------------------------------------ #

    def init_labels(
        self, n: int, *, phase: str = "I", fill: int | None = None
    ) -> np.ndarray:
        """Shared-memory identity (or constant-``fill``) array.

        The segment is created at the resolved label width — workers
        attach through the spec's dtype string, so a narrowed π narrows
        the whole cross-process hot path.  Segment creation is a real
        allocation, so it lands in ``bytes_allocated``; a warm backend
        whose previous run had the same ``n`` and width reinitialises the
        existing segment in place instead (``engine.run`` copies labels
        out before returning, so reuse never aliases a caller's result).
        """
        dtype = self._label_dtype(n)
        if (
            self._pi is None
            or self._pi.length != n
            or self._pi.array.dtype != dtype
        ):
            self._release(self._pi)
            self._pi = SharedVector(n, dtype=dtype)
            self._count_alloc(self._pi.array.nbytes)
        pi = self._pi.array
        if fill is not None:
            pi[:] = fill
        else:
            pi[:] = np.arange(n, dtype=dtype)
        return pi

    def _pi_spec(self, pi: np.ndarray):
        if self._pi is None or pi is not self._pi.array:
            raise ConfigurationError(
                "ProcessParallelBackend can only operate on the parent "
                "array returned by its own init_labels()"
            )
        return self._pi.spec

    def compress(self, pi: np.ndarray, *, phase: str) -> None:  # type: ignore[override]
        """Global compress barrier: per-block pointer jumping to roots.

        Returns ``None``: blocks jump concurrently, so there is no global
        pass count to report.
        """
        pi_spec = self._pi_spec(pi)
        ranges = partition_ranges(int(pi.shape[0]), self.workers)
        with self.tracer.span(phase):
            self._barrier(
                _part._task_compress,
                [(pi_spec, lo, hi) for lo, hi in ranges],
                phase,
            )
        return None

    def shortcut_step(self, pi: np.ndarray, *, phase: str) -> None:
        """Parallel single-step shortcut over per-block π ranges."""
        pi_spec = self._pi_spec(pi)
        ranges = partition_ranges(int(pi.shape[0]), self.workers)
        with self.tracer.span(phase):
            self._barrier(
                _part._task_shortcut,
                [(pi_spec, lo, hi) for lo, hi in ranges],
                phase,
            )

    def hook_pass(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> bool:
        """One parallel min-hook pass; True if any block hooked.

        A lost scatter-min race implies at least one block reported a
        change, so the pipeline's "full pass with no change" convergence
        test stays sound across processes.
        """
        pi_spec = self._pi_spec(pi)
        src_spec, dst_spec = self._load_edges(src, dst)
        ranges = partition_ranges(int(src.shape[0]), self.workers)
        with self.tracer.span(phase):
            changed = self._barrier(
                _part._task_hook,
                [
                    (pi_spec, src_spec, dst_spec, lo, hi)
                    for lo, hi in ranges
                ],
                phase,
            )
        return any(changed)

    def _propagate_barrier(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """One parallel min-label sweep (no timer: callers wrap it)."""
        pi_spec = self._pi_spec(pi)
        ip_spec, ix_spec, blocks = self._graph_specs(graph)
        changed = self._barrier(
            _part._task_propagate,
            [
                (pi_spec, ip_spec, ix_spec, b.v_lo, b.v_hi)
                for b in blocks
            ],
            phase,
        )
        return int(sum(changed))

    def propagate_pass(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """One parallel scatter-min sweep, one task per CSR edge block.

        Cross-block min-writes can race, but a lost write implies the
        loser's block reported a change, so a sweep returning zero
        performed no writes — the pipeline's convergence test is sound.
        """
        with self.tracer.span(phase):
            return self._propagate_barrier(pi, graph, phase=phase)

    def frontier_expand(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        frontier: np.ndarray,
        *,
        phase: str,
    ) -> np.ndarray:
        """Parallel push from a shared frontier buffer, sliced into
        degree-weighted contiguous ranges so skewed frontiers do not pile
        their edge work onto one worker."""
        pi_spec = self._pi_spec(pi)
        ip_spec, ix_spec, _blocks = self._graph_specs(graph)
        k = int(frontier.shape[0])
        if k == 0:
            return np.empty(0, dtype=VERTEX_DTYPE)
        self._frontier_buf = self._grow_buffer(self._frontier_buf, k)
        self._frontier_buf.array[:k] = frontier
        # Per-round degree scratch through the pool: ``indptr[1:]`` is a
        # view, so the two pooled takes plus the in-place subtract demand
        # no fresh memory once the buffers are warm.
        indptr = graph.indptr
        deg = self.pool.take(indptr[1:], frontier, "frontier-deg")
        lo = self.pool.take(indptr, frontier, "frontier-lo")
        np.subtract(deg, lo, out=deg)
        ranges = _part.partition_weighted_ranges(deg, self.workers)
        f_spec = self._frontier_buf.spec
        with self.tracer.span(phase):
            parts = self._barrier(
                _part._task_frontier_expand,
                [
                    (pi_spec, ip_spec, ix_spec, f_spec, lo, hi)
                    for lo, hi in ranges
                ],
                phase,
            )
        parts = [p for p in parts if p.shape[0]]
        if not parts:
            return np.empty(0, dtype=VERTEX_DTYPE)
        return sorted_unique(np.concatenate(parts)).astype(VERTEX_DTYPE, copy=False)

    def bottom_up_pass(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        label: int,
        sentinel: int,
        *,
        phase: str,
    ) -> tuple[np.ndarray, int, int]:
        """Parallel pull step, one task per CSR edge block.

        Each block vertex writes only its own π slot, so the step is
        race-free; block order keeps the concatenated next frontier
        ascending without a sort.
        """
        pi_spec = self._pi_spec(pi)
        ip_spec, ix_spec, blocks = self._graph_specs(graph)
        n = int(pi.shape[0])
        if self._mask_buf is None or self._mask_buf.length < n:
            self._release(self._mask_buf)
            self._mask_buf = SharedVector(max(n, 1024), dtype=np.uint8)
            self._count_alloc(self._mask_buf.array.nbytes)
        self._mask_buf.array[:n] = in_frontier
        m_spec = self._mask_buf.spec
        with self.tracer.span(phase):
            parts = self._barrier(
                _part._task_bottom_up,
                [
                    (
                        pi_spec,
                        ip_spec,
                        ix_spec,
                        m_spec,
                        b.v_lo,
                        b.v_hi,
                        int(label),
                        int(sentinel),
                    )
                    for b in blocks
                ],
                phase,
            )
        founds = [p[0] for p in parts if p[0].shape[0]]
        next_frontier = (
            np.concatenate(founds)
            if founds
            else np.empty(0, dtype=VERTEX_DTYPE)
        )
        modeled = sum(p[1] for p in parts)
        gathered = sum(p[2] for p in parts)
        return next_frontier, int(modeled), int(gathered)

    def propagate_settle(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """Full synchronous sweeps until a pass reports no change.

        The data-driven frontier push can permanently lose a min-write to
        a scatter-min race across blocks; a sweep returning zero changes
        performed no writes, certifying the fixpoint.
        """
        settle = 0
        cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
        with self.tracer.span(phase):
            while self._propagate_barrier(pi, graph, phase=phase):
                settle += 1
                if settle > cap:
                    raise ConvergenceError(
                        f"settle loop exceeded {cap} passes — corrupted pi?"
                    )
        self.tracer.metrics.counter("settle_passes").inc(settle)
        return settle

    # -- lifecycle ------------------------------------------------------- #

    def detach_labels(self, pi: np.ndarray) -> np.ndarray:
        """Copy labels out of shared memory into an ordinary array."""
        if self._pi is not None and pi is self._pi.array:
            return np.array(pi, dtype=VERTEX_DTYPE, copy=True)
        return pi

    def close(self) -> None:
        """Terminate the worker pool and release every shared segment."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        for vec in (
            self._pi,
            self._src_buf,
            self._dst_buf,
            self._frontier_buf,
            self._mask_buf,
            self._stats,
        ):
            self._release(vec)
        self._pi = self._src_buf = self._dst_buf = self._stats = None
        self._frontier_buf = self._mask_buf = None
        self._src_key = self._dst_key = None
        self._worker_tracks = {}
        if self._graph_segs is not None:
            for seg in self._graph_segs:
                self._release(seg)
        self._graph = None
        self._graph_segs = None
        self._blocks = []

    def __enter__(self) -> "ProcessParallelBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


#: CSR sharding modes of the distributed backend (1-D edge partitioning).
PARTITION_MODES = ("block", "hash")


def _dedup_min(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate delta indices, keeping the minimum value — what
    a rank does before putting its candidate list on the wire."""
    uniq, inv = sorted_unique(idx, return_inverse=True)
    if uniq.shape[0] == idx.shape[0]:
        return idx, val
    out = np.full(uniq.shape[0], np.iinfo(val.dtype).max, dtype=val.dtype)
    np.minimum.at(out, inv, val)
    return uniq, out


class DistributedBackend(VectorizedBackend):
    """BSP delta-exchange substrate: ``ranks`` simulated machines, each
    holding a shard of the edges and a full replica of π.

    Each primitive is executed as one or more supersteps.  Within a
    superstep every rank gathers candidate hooks *against the replicated
    pre-superstep snapshot* of π and keeps only candidates that improve on
    it; the candidates then cross the communicator in two phases — an
    ``alltoallv`` routing each delta to the owner rank of its vertex, and
    an owner broadcast of the merged changes (sparse index+value pairs, or
    the whole owned block once the change density passes 1/2) — before
    every replica applies the same scatter-min.  Because the vectorized
    kernels also gather all candidates before any write, the merged π is
    bit-identical to the single-machine result, round for round.

    Vertex ownership is an even 1-D block map (``block_bounds``); edge
    sharding follows ``partition`` — ``block`` keeps CSR row locality per
    rank (``partition_csr_blocks``), ``hash`` spreads edges pseudo-randomly
    (``hash_owners``).  Pure replica-local work (compression, pointer
    jumps, the giant-component probe) is inherited from the vectorized
    substrate and costs no traffic; all bytes that do cross ranks flow
    through ``self.comm`` and surface as ``comm_*`` counters.
    """

    kind = "distributed"

    def __init__(
        self,
        ranks: int = 4,
        *,
        partition: str = "block",
        comm: SimulatedComm | None = None,
        label_dtype: str = "auto",
    ) -> None:
        super().__init__(label_dtype=label_dtype)
        if ranks < 1:
            raise ConfigurationError(f"ranks must be >= 1, got {ranks}")
        if partition not in PARTITION_MODES:
            raise ConfigurationError(
                f"unknown partition mode {partition!r}; "
                f"available: {list(PARTITION_MODES)}"
            )
        if comm is not None and comm.num_ranks != ranks:
            raise ConfigurationError(
                f"communicator has {comm.num_ranks} ranks, expected {ranks}"
            )
        self.ranks = ranks
        self.partition = partition
        self.comm = comm if comm is not None else SimulatedComm(ranks)
        # Replica state as of the last barrier: driver-side writes
        # (the BFS pipelines seed ``pi[cursor] = label`` directly) are
        # detected against it and charged as a root broadcast.
        self._shadow: np.ndarray | None = None
        # Vertex-ownership cut points, cached per n.
        self._bounds_n = -1
        self._bounds: np.ndarray | None = None
        # Per-graph edge shards (identity-cached like ``_edges``).
        self._shard_graph: CSRGraph | None = None
        self._shards: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._shard_owner: np.ndarray | None = None
        # Watermarks for flushing CommStats into the run's counters (the
        # comm object outlives runs; counters must see per-run deltas).
        self._seen_bytes = 0
        self._seen_msgs = 0
        self._seen_steps = 0
        self._seen_pair: dict[tuple[int, int], int] = {}

    # -- sharding -------------------------------------------------------- #

    def _vertex_bounds(self, n: int) -> np.ndarray:
        if self._bounds_n != n:
            self._bounds_n = n
            self._bounds = _dpart.block_bounds(n, self.ranks)
        assert self._bounds is not None
        return self._bounds

    def _graph_shards(self, graph: CSRGraph) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-rank ``(src, dst)`` directed-edge shards of ``graph``."""
        if self._shard_graph is not graph:
            src, dst = self._edges(graph)
            m = int(src.shape[0])
            owner = np.empty(m, dtype=np.int64)
            if self.partition == "hash":
                owner[:] = _dpart.hash_owners(m, self.ranks)
                shards = [
                    (src[owner == r], dst[owner == r])
                    for r in range(self.ranks)
                ]
            else:
                blocks = _part.partition_csr_blocks(graph.indptr, self.ranks)
                shards = []
                for r, blk in enumerate(blocks):
                    owner[blk.e_lo : blk.e_hi] = r
                    shards.append(
                        (src[blk.e_lo : blk.e_hi], dst[blk.e_lo : blk.e_hi])
                    )
            self._shard_graph = graph
            self._shards = shards
            self._shard_owner = owner
        assert self._shards is not None
        return self._shards

    def _edge_owner(self, graph: CSRGraph) -> np.ndarray:
        """Owner rank per flat directed-edge position."""
        self._graph_shards(graph)
        assert self._shard_owner is not None
        return self._shard_owner

    def shard_sizes(self, graph: CSRGraph) -> list[int]:
        """Directed-edge count held by each rank for ``graph``."""
        return [int(s.shape[0]) for s, _ in self._graph_shards(graph)]

    def _batch_shards(
        self, src: np.ndarray, dst: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Shard an ad-hoc edge batch (sampling rounds, SV hooks) by flat
        position, mirroring the configured partition mode."""
        m = int(src.shape[0])
        if self.partition == "hash":
            owner = _dpart.hash_owners(m, self.ranks)
            return [
                (src[owner == r], dst[owner == r]) for r in range(self.ranks)
            ]
        return [
            (src[lo:hi], dst[lo:hi])
            for lo, hi in _part.partition_ranges(m, self.ranks)
        ]

    # -- replica consistency / traffic accounting ------------------------ #

    def _flush_comm(self) -> None:
        """Move new CommStats traffic into the run's counters."""
        stats = self.comm.stats
        metrics = self.tracer.metrics
        if stats.bytes_sent != self._seen_bytes:
            metrics.counter("comm_bytes_sent").inc(
                stats.bytes_sent - self._seen_bytes
            )
            self._seen_bytes = stats.bytes_sent
        if stats.messages != self._seen_msgs:
            metrics.counter("comm_messages").inc(
                stats.messages - self._seen_msgs
            )
            self._seen_msgs = stats.messages
        new_steps = stats.supersteps - self._seen_steps
        if new_steps:
            metrics.counter("comm_supersteps").inc(new_steps)
            if metrics.enabled:
                hist = metrics.histogram("comm_step_bytes", POW2_BUCKETS)
                for nbytes in stats.step_bytes[self._seen_steps :]:
                    hist.observe(nbytes)
            self._seen_steps = stats.supersteps
        for pair, nbytes in stats.by_pair.items():
            seen = self._seen_pair.get(pair, 0)
            if nbytes != seen:
                metrics.counter(f"comm_pair_{pair[0]}_{pair[1]}").inc(
                    nbytes - seen
                )
                self._seen_pair[pair] = nbytes

    def _sync_driver(self, pi: np.ndarray) -> None:
        """Fold driver-side writes into every replica.

        Pipelines own π between primitives and may write it directly (the
        BFS cursor seed).  Any divergence from the last-barrier shadow is
        broadcast — sparse or dense, whichever is smaller — before the
        primitive's supersteps run.
        """
        shadow = self._shadow
        if shadow is None or shadow.shape[0] != pi.shape[0]:
            self._shadow = pi.copy()
            return
        if self.ranks == 1:
            np.copyto(shadow, pi)
            return
        diff = np.nonzero(pi != shadow)[0]
        if diff.shape[0] == 0:
            return
        payload = self._encode(pi, diff, pi[diff], 0, int(pi.shape[0]))
        self.comm.bcast_all({0: payload})
        shadow[diff] = pi[diff]
        self._flush_comm()

    @staticmethod
    def _enc_cost(k: int, span: int, item: int) -> int:
        """Wire bytes of ``k`` changed slots in a ``span``-slot window under
        the cheapest of the three delta encodings (see ``_encode``)."""
        return min(2 * k * item, (span + 7) // 8 + k * item, span * item)

    def _encode(
        self, pi: np.ndarray, idx: np.ndarray, val: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Pack a delta set for the wire, cheapest encoding first.

        Three tiers by measured change density: sparse ``(index, value)``
        pairs while ``2k`` stays under the bitmap break-even, a changed-slot
        bitmap plus packed values in the mid range, and the raw dense window
        slice once most slots moved.  All tiers carry values at the run's
        (possibly narrowed) label width.
        """
        item = pi.dtype.itemsize
        k = int(idx.shape[0])
        span = int(hi - lo)
        pairs = 2 * k * item
        bitmap = (span + 7) // 8 + k * item
        dense = span * item
        if pairs <= bitmap and pairs <= dense:
            return np.concatenate([idx.astype(pi.dtype), val]).view(np.uint8)
        if bitmap <= dense:
            mask = np.zeros(span, dtype=bool)
            mask[np.asarray(idx) - lo] = True
            return np.concatenate(
                [np.packbits(mask), np.ascontiguousarray(val).view(np.uint8)]
            )
        return np.ascontiguousarray(pi[lo:hi]).view(np.uint8)

    def _ship_deltas(
        self,
        pi: np.ndarray,
        live: list[tuple[int, np.ndarray, np.ndarray]],
        changed: np.ndarray,
        *,
        already_applied: bool,
    ) -> None:
        """Put one exchange's deltas on the wire, cheapest strategy first.

        Two strategies are costed against each other per exchange (the
        candidate counts ride the preceding barrier as scalar metadata, so
        every rank prices both):

        - **all-gather** — every rank broadcasts its own candidate deltas;
          peers merge locally.  One superstep; total bytes grow with the
          raw candidate volume times ``R - 1``.
        - **owner-routed** — an ``alltoallv`` ships candidates to the owner
          rank of each vertex, owners merge and publish only the *final*
          changed slots.  Two supersteps, but cross-rank duplicate targets
          collapse before the broadcast fan-out.

        Sparse sweeps favour all-gather; contended early rounds with heavy
        cross-rank duplication favour owner routing.
        """
        n = int(pi.shape[0])
        item = pi.dtype.itemsize
        bounds = self._vertex_bounds(n)
        owner_parts: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        owner_cost = 0
        if not already_applied:
            for r, idx, val in live:
                owner = np.searchsorted(bounds, idx, side="right") - 1
                for dest in sorted_unique(owner):
                    if dest == r:
                        continue
                    sel = owner == dest
                    owner_parts[(r, int(dest))] = (idx[sel], val[sel])
                    owner_cost += self._enc_cost(
                        int(np.count_nonzero(sel)),
                        int(bounds[dest + 1] - bounds[dest]),
                        item,
                    )
        pub: dict[int, np.ndarray] = {}
        if changed.shape[0]:
            owner_c = np.searchsorted(bounds, changed, side="right") - 1
            for root in range(self.ranks):
                sel = changed[owner_c == root]
                if sel.shape[0]:
                    pub[root] = sel
                    owner_cost += (self.ranks - 1) * self._enc_cost(
                        int(sel.shape[0]),
                        int(bounds[root + 1] - bounds[root]),
                        item,
                    )
        gather_cost = sum(
            (self.ranks - 1) * self._enc_cost(int(idx.shape[0]), n, item)
            for _, idx, _ in live
        )
        if gather_cost <= owner_cost:
            self.comm.bcast_all(
                {
                    r: self._encode(pi, idx, val, 0, n)
                    for r, idx, val in live
                }
            )
            return
        if owner_parts:
            self.comm.alltoallv(
                {
                    (r, dest): self._encode(
                        pi, idx, val, int(bounds[dest]), int(bounds[dest + 1])
                    )
                    for (r, dest), (idx, val) in owner_parts.items()
                }
            )
        if pub:
            self.comm.bcast_all(
                {
                    root: self._encode(
                        pi,
                        sel,
                        pi[sel],
                        int(bounds[root]),
                        int(bounds[root + 1]),
                    )
                    for root, sel in pub.items()
                }
            )

    def _exchange(
        self,
        pi: np.ndarray,
        deltas: list[tuple[np.ndarray, np.ndarray]],
        *,
        already_applied: bool = False,
    ) -> np.ndarray:
        """One delta exchange: merge per-rank ``(index, value)`` candidate
        minima into every replica of π; returns the changed slot indices.

        Candidates are deduplicated per rank (minimum per index) and merged
        by scatter-min — order-independent, so every replica lands on the
        same values the single-machine kernel produces.  The wire protocol
        is delegated to :meth:`_ship_deltas`; an exchange with no
        candidates anywhere is skipped entirely, so a converged sweep
        costs zero bytes and zero barriers.

        ``already_applied`` marks deltas whose writes already landed in π
        by rank-disjoint local kernels (the bottom-up pull): owner routing
        is free because every entry is produced on its owner rank.
        """
        live = [
            (r, idx, val)
            for r, (idx, val) in enumerate(deltas)
            if idx.shape[0]
        ]
        if not live:
            return np.empty(0, dtype=np.int64)
        if already_applied:
            changed = np.concatenate([idx for _, idx, _ in live])
        else:
            live = [
                (r, *_dedup_min(idx, val)) for r, idx, val in live
            ]
            all_idx = np.concatenate([idx for _, idx, _ in live])
            all_val = np.concatenate([val for _, _, val in live])
            touched = sorted_unique(all_idx)
            before = pi[touched]
            np.minimum.at(pi, all_idx, all_val)
            changed = touched[pi[touched] < before]
        if self.ranks > 1:
            with self.tracer.span("X"):
                self._ship_deltas(
                    pi, live, changed, already_applied=already_applied
                )
            self._flush_comm()
        if changed.shape[0]:
            assert self._shadow is not None
            self._shadow[changed] = pi[changed]
        return changed

    # -- link primitives ------------------------------------------------- #

    def _dist_link_batch(
        self,
        pi: np.ndarray,
        shards: list[tuple[np.ndarray, np.ndarray]],
    ) -> int:
        """The ``link_batch`` loop as one delta-exchange superstep per
        round: every rank climbs its shard's private ``(a, b)`` cursors on
        the replica and ships only winning root hooks.  Round-for-round
        identical to :func:`~repro.core.link.link_batch` because hooks are
        gathered against the pre-round snapshot and merged by scatter-min.
        """
        if sum(int(s.shape[0]) for s, _ in shards) == 0:
            return 0
        state = [(pi[src], pi[dst]) for src, dst in shards]
        cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
        rounds = 0
        while True:
            actives = [a != b for a, b in state]
            flags = [bool(act.any()) for act in actives]
            any_active = self.comm.allreduce_any(flags)
            self._flush_comm()
            if not any_active:
                return rounds
            rounds += 1
            if rounds > cap:
                raise ConvergenceError(
                    f"link_batch exceeded {cap} rounds — cycle in pi?"
                )
            deltas = []
            climbs = []
            for (a, b), act in zip(state, actives):
                a = a[act]
                b = b[act]
                high = np.maximum(a, b)
                low = np.minimum(a, b)
                root = pi[high] == high
                deltas.append((high[root], low[root]))
                climbs.append((high, low))
            self._exchange(pi, deltas)
            state = [
                (pi[pi[high]], pi[low]) for high, low in climbs
            ]

    def link_edges(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> int:
        self._sync_driver(pi)
        with self.tracer.span(phase):
            return self._dist_link_batch(pi, self._batch_shards(src, dst))

    def link_neighbor_round(
        self, pi: np.ndarray, graph: CSRGraph, r: int, *, phase: str
    ) -> int:
        src, dst = round_edges(graph, r)
        self._sync_driver(pi)
        with self.tracer.span(phase):
            return self._dist_link_batch(pi, self._batch_shards(src, dst))

    def link_remaining(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        start: int,
        largest: int | None,
        *,
        phase: str,
    ) -> tuple[int, int, int]:
        self._sync_driver(pi)
        if largest is not None:
            verts = np.nonzero(pi != largest)[0].astype(VERTEX_DTYPE)
            deg = np.asarray(graph.degree())
            skipped_verts = np.nonzero(pi == largest)[0]
            skipped = int(np.maximum(deg[skipped_verts] - start, 0).sum())
        else:
            verts = np.arange(pi.shape[0], dtype=VERTEX_DTYPE)
            skipped = 0
        with self.tracer.span(f"{phase}-gather"):
            src, dst = remaining_edges(graph, verts, start)
        with self.tracer.span(phase):
            rounds = self._dist_link_batch(
                pi, self._batch_shards(src, dst)
            )
        return int(src.shape[0]), skipped, rounds

    # -- replica-local primitives ---------------------------------------- #

    def init_labels(
        self, n: int, *, phase: str = "I", fill: int | None = None
    ) -> np.ndarray:
        # The identity (or constant) seed is generated locally on every
        # rank — no traffic; the shadow records the common starting state.
        pi = super().init_labels(n, phase=phase, fill=fill)
        self._shadow = pi.copy()
        self._vertex_bounds(n)
        return pi

    def compress(self, pi: np.ndarray, *, phase: str) -> int:
        # Pointer doubling reads/writes only the local replica: since every
        # rank holds the same π, all replicas converge identically for free.
        self._sync_driver(pi)
        passes = super().compress(pi, phase=phase)
        assert self._shadow is not None
        np.copyto(self._shadow, pi)
        return passes

    def shortcut_step(self, pi: np.ndarray, *, phase: str) -> None:
        self._sync_driver(pi)
        super().shortcut_step(pi, phase=phase)
        assert self._shadow is not None
        np.copyto(self._shadow, pi)

    def find_largest(
        self,
        pi: np.ndarray,
        sample_size: int,
        rng: np.random.Generator,
        *,
        phase: str,
    ) -> int:
        # Every rank holds the replica and the run's seeded RNG stream, so
        # the probe is rank-local and consumes identical RNG state.
        self._sync_driver(pi)
        return super().find_largest(pi, sample_size, rng, phase=phase)

    # -- sweep primitives ------------------------------------------------- #

    def hook_pass(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> bool:
        self._sync_driver(pi)
        with self.tracer.span(phase):
            deltas = []
            hooked = False
            for src_r, dst_r in self._batch_shards(src, dst):
                cu = pi[src_r]
                cv = pi[dst_r]
                mask = (cu < cv) & (pi[cv] == cv)
                if mask.any():
                    hooked = True
                    if self.tracer.metrics.enabled:
                        self.tracer.metrics.histogram(
                            "hook_distance", POW2_BUCKETS
                        ).observe_many(cv[mask] - cu[mask])
                deltas.append((cv[mask], cu[mask]))
            if not hooked:
                return False
            self._exchange(pi, deltas)
            return True

    def _sweep_exchange(
        self, pi: np.ndarray, shards: list[tuple[np.ndarray, np.ndarray]]
    ) -> int:
        """One distributed min-label sweep: per-shard winning candidates
        against the snapshot, then a delta exchange; returns the win count
        (equal to the vectorized masked sweep's, shard-partitioned)."""
        deltas = []
        total = 0
        for src_r, dst_r in shards:
            cand = pi[src_r]
            won = cand < pi[dst_r]
            total += int(np.count_nonzero(won))
            deltas.append((dst_r[won], cand[won]))
        if total:
            self._exchange(pi, deltas)
        return total

    def propagate_pass(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        self._sync_driver(pi)
        shards = self._graph_shards(graph)
        with self.tracer.span(phase):
            return self._sweep_exchange(pi, shards)

    def fused_hook_jump(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        *,
        hooking: str = "plain",
        phase: str,
    ) -> int:
        self._sync_driver(pi)
        shards = self._graph_shards(graph)
        with self.tracer.span(phase):
            changed = self._sweep_exchange(pi, shards)
            if changed and hooking != "plain":
                # Grandparent hooks read the *merged* post-sweep replica,
                # matching the vectorized fused kernel's gather order.
                deltas = []
                for src_r, dst_r in shards:
                    grand = pi[pi[src_r]]
                    if hooking == "aggressive":
                        target = dst_r
                    else:  # stochastic: hook the destination's parent
                        target = pi[dst_r]
                    won = grand < pi[target]
                    changed += int(np.count_nonzero(won))
                    deltas.append((target[won], grand[won]))
                self._exchange(pi, deltas)
            if changed:
                self._pointer_jump(pi)
                assert self._shadow is not None
                np.copyto(self._shadow, pi)
            else:
                self.tracer.metrics.counter("rounds_skipped").inc()
            self.tracer.metrics.counter("fused_passes").inc()
            return changed

    # -- frontier primitives ---------------------------------------------- #

    def frontier_expand(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        frontier: np.ndarray,
        *,
        phase: str,
    ) -> np.ndarray:
        # Frontier membership is derived from replicated label state, so
        # the frontier itself never crosses the wire — only label deltas.
        self._sync_driver(pi)
        with self.tracer.span(phase):
            empty = np.empty(0, dtype=VERTEX_DTYPE)
            if frontier.shape[0] == 0:
                return empty
            indptr, indices = graph.indptr, graph.indices
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                return empty
            offsets = np.repeat(starts, counts) + segment_ranges(counts)
            dst = indices[offsets]
            cand = np.repeat(pi[frontier], counts)
            owner = self._edge_owner(graph)[offsets]
            deltas = []
            wins = []
            for r in range(self.ranks):
                sel = owner == r
                dst_r = dst[sel]
                cand_r = cand[sel]
                won = cand_r < pi[dst_r]
                deltas.append((dst_r[won], cand_r[won]))
                if won.any():
                    wins.append(dst_r[won])
            if not wins:
                return empty
            self._exchange(pi, deltas)
            return sorted_unique(np.concatenate(wins)).astype(VERTEX_DTYPE, copy=False)

    def bottom_up_pass(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        label: int,
        sentinel: int,
        *,
        phase: str,
    ) -> tuple[np.ndarray, int, int]:
        self._sync_driver(pi)
        with self.tracer.span(phase):
            bounds = self._vertex_bounds(int(pi.shape[0]))
            founds = []
            deltas = []
            modeled = 0
            gathered = 0
            # The pull partitions by vertex-ownership block: each vertex
            # writes only its own slot, so rank-local execution is exact
            # and the found deltas are born on their owner ranks.
            for r in range(self.ranks):
                found, mod, gat = _part.bottom_up_block(
                    pi,
                    graph.indptr,
                    graph.indices,
                    in_frontier,
                    int(bounds[r]),
                    int(bounds[r + 1]),
                    label,
                    sentinel,
                )
                founds.append(found)
                modeled += mod
                gathered += gat
                deltas.append(
                    (
                        found.astype(np.int64),
                        np.full(found.shape[0], label, dtype=pi.dtype),
                    )
                )
            self._exchange(pi, deltas, already_applied=True)
            if len(founds) == 1:
                nxt = founds[0]
            else:
                nxt = np.concatenate(founds).astype(VERTEX_DTYPE)
            return nxt, modeled, gathered


# --------------------------------------------------------------------- #
# backend factory
# --------------------------------------------------------------------- #

#: canonical backend kinds, as accepted by :func:`make_backend`, the CLI's
#: ``--backend`` flag, and algorithm registry metadata.
BACKEND_KINDS = ("vectorized", "simulated", "process", "distributed")


def backend_kinds() -> tuple[str, ...]:
    """The backend kinds :func:`make_backend` can construct."""
    return BACKEND_KINDS


def make_backend(
    kind: str,
    *,
    workers: int | None = None,
    ranks: int | None = None,
    label_dtype: str = "auto",
) -> ExecutionBackend:
    """Construct a backend from its registry kind.

    ``workers`` selects the worker count for the parallel substrates
    (simulated machine workers / OS processes); ``ranks`` the world size
    of the distributed substrate; the vectorized backend ignores both.
    ``label_dtype`` selects the parent-array width policy (see
    :func:`resolve_label_dtype`).
    """
    if kind == "vectorized":
        return VectorizedBackend(label_dtype=label_dtype)
    if kind == "simulated":
        return SimulatedBackend(
            SimulatedMachine(workers or 4), label_dtype=label_dtype
        )
    if kind == "process":
        return ProcessParallelBackend(workers=workers, label_dtype=label_dtype)
    if kind == "distributed":
        return DistributedBackend(ranks=ranks or 4, label_dtype=label_dtype)
    raise ConfigurationError(
        f"unknown backend kind {kind!r}; available: {list(BACKEND_KINDS)}"
    )
