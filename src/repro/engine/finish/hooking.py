"""Tree-hooking finish phases: Shiloach–Vishkin and FastSV.

Both iterate a hook/propagate pass with a shortcut until a full pass
changes nothing.  SV hooks parent pointers edge-by-edge (GAP's
formulation, Fig. 1); FastSV replaces the per-edge root check with an
aggressive scatter-min label sweep plus a single pointer-jump per
iteration (the stochastic hooking + shortcutting of Zhang et al.'s
FastSV), which converges in far fewer rounds on high-diameter graphs.

As finish phases both start from whatever partial forest the sampling
phase built; when the plan's skip glue identified a giant component, SV
drops the edges *internal* to it up front (both endpoints already carry
the giant label, so those edges can never hook — dropping them is free
work avoidance with bit-identical results).
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    ITERATION_CAP_FACTOR,
    ITERATION_CAP_SLACK,
    VERTEX_DTYPE,
)
from repro.engine.backends import HOOKING_MODES, ExecutionBackend
from repro.engine.phase import FinishSpec, PlanContext
from repro.engine.result import CCResult
from repro.errors import ConfigurationError, ConvergenceError
from repro.obs import phase_label
from repro.unionfind.parent import ParentArray

__all__ = ["SV", "FASTSV", "sv_finish", "fastsv_finish", "sv_pipeline_edges"]


def _validate_sv(
    *, track_depth: bool = False, shortcut: str = "full"
) -> None:
    if shortcut not in ("full", "single"):
        raise ConfigurationError(
            f"shortcut must be 'full' or 'single', got {shortcut!r}"
        )


def _hook_loop(
    backend: ExecutionBackend,
    pi: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    result: CCResult,
    *,
    track_depth: bool,
    shortcut: str,
) -> None:
    """The SV iteration shared by the finish phase and the edge-list API."""
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    iterations = 0
    while True:
        iterations += 1
        if iterations > cap:
            raise ConvergenceError(f"SV exceeded {cap} iterations")
        changed = backend.hook_pass(
            pi, src, dst, phase=phase_label("H", round=iterations)
        )
        result.edges_processed += int(src.shape[0])
        if track_depth:
            d = ParentArray(pi).max_depth()
            result.depth_per_iteration.append(d)
            result.max_tree_depth = max(result.max_tree_depth, d)
        shortcut_phase = phase_label("S", round=iterations)
        if shortcut == "full":
            if changed or iterations == 1:
                backend.compress(pi, phase=shortcut_phase)
            else:
                # A hook pass reporting no change performed no writes on
                # any substrate, and the previous iteration ended with a
                # full compress — π is still flat, so the trailing
                # compress would be the identity.  (The first iteration
                # must still compress: sampling phases can hand the loop
                # deep trees that no hook ever touches.)
                backend.tracer.metrics.counter("rounds_skipped").inc()
        else:
            # The original formulation's single shortcut step per
            # iteration: pi <- pi[pi] once.  Trees shrink gradually and
            # convergence takes more iterations than GAP's full compress.
            backend.shortcut_step(pi, phase=shortcut_phase)
        backend.beat(
            phase_label("H", round=iterations), changed=int(changed)
        )
        if not changed:
            # With single-step shortcutting the trees may still be deep;
            # converged means no more hooks, so finish compressing now.
            if shortcut == "single":
                backend.compress(pi, phase=phase_label("S", final=True))
            break
    result.iterations = iterations


def sv_finish(
    ctx: PlanContext, *, track_depth: bool = False, shortcut: str = "full"
) -> None:
    """Shiloach–Vishkin hook/shortcut loop over the full edge array.

    With ``ctx.largest`` set, edges whose endpoints *both* already carry
    the giant label are dropped before the loop — they can never hook
    (equal roots), so the labeling is unchanged while the per-iteration
    edge scan shrinks by the giant component's internal edges.
    """
    _validate_sv(track_depth=track_depth, shortcut=shortcut)
    src, dst = ctx.graph.edge_array()
    if ctx.largest is not None and src.shape[0]:
        internal = (ctx.pi[src] == ctx.largest) & (ctx.pi[dst] == ctx.largest)
        ctx.result.edges_skipped = int(np.count_nonzero(internal))
        keep = ~internal
        src, dst = src[keep], dst[keep]
    _hook_loop(
        ctx.backend,
        ctx.pi,
        src,
        dst,
        ctx.result,
        track_depth=track_depth,
        shortcut=shortcut,
    )


def _validate_fastsv(*, hooking: str = "plain") -> None:
    if hooking not in HOOKING_MODES:
        raise ConfigurationError(
            f"hooking must be one of {list(HOOKING_MODES)}, got {hooking!r}"
        )


def fastsv_finish(ctx: PlanContext, *, hooking: str = "plain") -> None:
    """FastSV-style finish: fused scatter-min sweep + pointer jump per
    iteration (phase ``HS<i>``), until a sweep changes nothing.

    Each round is one :meth:`~repro.engine.backends.ExecutionBackend.
    fused_hook_jump` call: the min-label sweep hooks aggressively — every
    edge lowers its endpoint's label to the neighbour's, no root check —
    and the fused pointer jump (``π ← π[π]``) halves chain lengths, so
    convergence needs far fewer rounds than pure label propagation on
    high-diameter graphs.  The backend skips the jump on the final
    no-change round (π is provably flat then — see the primitive's
    contract), which the ``rounds_skipped`` counter makes visible.

    ``hooking`` selects the hooking variant (``plain`` / ``stochastic`` /
    ``aggressive``): the extra variants additionally scatter grandparent
    labels, cutting rounds on high-diameter graphs at the cost of more
    work per round.  All writes are monotone min-writes over
    component-internal ids, so every variant converges to the component
    minima, bit-compatible with every other finish.
    """
    _validate_fastsv(hooking=hooking)
    backend, pi, graph, result = ctx.backend, ctx.pi, ctx.graph, ctx.result
    m = graph.num_directed_edges
    if m == 0:
        return
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    iterations = 0
    while True:
        iterations += 1
        if iterations > cap:
            raise ConvergenceError(f"FastSV exceeded {cap} iterations")
        changed = backend.fused_hook_jump(
            pi, graph, hooking=hooking,
            phase=phase_label("HS", round=iterations),
        )
        result.edges_processed += m
        backend.beat(
            phase_label("HS", round=iterations), changed=int(changed)
        )
        if not changed:
            break
    result.iterations = iterations


def sv_pipeline_edges(
    backend: ExecutionBackend,
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    track_depth: bool = False,
    shortcut: str = "full",
) -> CCResult:
    """Shiloach–Vishkin over a flat directed edge list, any backend.

    The standalone edge-list entry point (used by the layout ablation and
    edge-stream callers); graph-based runs go through the ``sv`` plan.
    ``track_depth`` records the maximum tree depth before each shortcut —
    the Table II statistic — at the cost of an O(n) scan per iteration.
    ``shortcut`` selects full compression per iteration (GAP's
    formulation, the default) or the original algorithm's single
    ``pi <- pi[pi]`` step.
    """
    _validate_sv(track_depth=track_depth, shortcut=shortcut)
    n = num_vertices
    if n == 0:
        result = CCResult(labels=np.arange(0, dtype=VERTEX_DTYPE))
        result.run_stats = backend.run_stats()
        return result
    src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
    dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)

    pi = backend.init_labels(n, phase="I")
    result = CCResult(labels=pi)
    _hook_loop(
        backend, pi, src, dst, result,
        track_depth=track_depth, shortcut=shortcut,
    )
    if result.labels.dtype != VERTEX_DTYPE:
        # Narrowed working labels never escape the engine layer.
        result.labels = result.labels.astype(VERTEX_DTYPE)
    result.run_stats = backend.run_stats()
    return result


SV = FinishSpec(
    name="sv",
    fn=sv_finish,
    description="Shiloach-Vishkin tree hooking (GAP formulation): "
    "hook + shortcut over every edge per iteration",
    params=("track_depth", "shortcut"),
    supports_skip=True,
    validate=_validate_sv,
)

FASTSV = FinishSpec(
    name="fastsv",
    fn=fastsv_finish,
    description="FastSV-style scatter-min hooking with per-iteration "
    "pointer jumping (fused rounds; hooking=plain/stochastic/aggressive)",
    params=("hooking",),
    validate=_validate_fastsv,
)
