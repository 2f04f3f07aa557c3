"""Whole-graph traversal finishes: BFS-CC and direction-optimizing BFS.

These two own their initialisation (the unvisited sentinel ``n`` instead
of self-pointing π), so they are *whole-graph* finishes: self-contained
pipelines that only compose with the ``none`` sampling phase.  The
pipeline bodies are unchanged from the pre-refactor monoliths.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.engine.backends import ExecutionBackend
from repro.engine.phase import FinishSpec
from repro.engine.result import CCResult
from repro.graph.csr import CSRGraph
from repro.obs import phase_label

__all__ = [
    "BFS_FINISH",
    "DOBFS_FINISH",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "bfs_pipeline",
    "dobfs_pipeline",
]

#: GAP's direction-switch parameters (DOBFS).
DEFAULT_ALPHA = 15.0
DEFAULT_BETA = 18.0


def bfs_pipeline(graph: CSRGraph, backend: ExecutionBackend) -> CCResult:
    """Connected components via repeated frontier-parallel BFS, any backend.

    Components are found one at a time: an ascending cursor scan picks
    the smallest unvisited vertex as seed (so labels are component
    minima, bit-identical to the hooking algorithms), then phase ``T<i>``
    frontier expansions label everything reached.  Unvisited vertices
    carry the sentinel ``n`` — compatible with the backends' min-label
    push, since every real label is smaller.  Each edge is touched once
    (linear work), but components are processed serially — the weakness
    Fig. 8c exposes.
    """
    n = graph.num_vertices
    if n == 0:
        result = CCResult(labels=np.arange(0, dtype=VERTEX_DTYPE))
        result.run_stats = backend.run_stats()
        return result
    sentinel = n
    pi = backend.init_labels(n, phase="I", fill=sentinel)
    result = CCResult(labels=pi)
    indptr = graph.indptr
    edges = 0
    steps = 0
    step_edges: list[int] = []
    # Seeds are scanned in id order; the cursor never revisits labelled
    # prefix entries, so the scan is O(n) total.
    cursor = 0
    while cursor < n:
        if int(pi[cursor]) != sentinel:
            cursor += 1
            continue
        label = cursor
        pi[cursor] = label
        frontier = np.asarray([cursor], dtype=VERTEX_DTYPE)
        while frontier.size:
            steps += 1
            total = int((indptr[frontier + 1] - indptr[frontier]).sum())
            if total == 0:
                break
            edges += total
            step_edges.append(total)
            phase = phase_label(
                "T", round=steps, frontier=int(frontier.shape[0])
            )
            backend.record_frontier(int(frontier.shape[0]), phase=phase)
            frontier = backend.frontier_expand(
                pi, graph, frontier, phase=phase
            )
            backend.beat(phase, frontier=int(frontier.shape[0]))
        cursor += 1
    # step_edges: edges examined per frontier expansion, in execution
    # order — the per-parallel-phase work profile used by the scaling
    # model (Fig. 8b).
    result.edges_processed = edges
    result.bfs_steps = steps
    result.step_edges = step_edges
    result.labels = pi
    result.run_stats = backend.run_stats()
    return result


def dobfs_pipeline(
    graph: CSRGraph,
    backend: ExecutionBackend,
    *,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
) -> CCResult:
    """Connected components via direction-optimizing BFS, any backend.

    Like :func:`bfs_pipeline` but each step chooses between a top-down
    frontier expansion (phase ``T<i>``) and a bottom-up pull over the
    unvisited vertices (phase ``B<i>``), following GAP's heuristic: go
    bottom-up when the frontier's out-degree exceeds
    ``remaining_edges / alpha``; return to top-down once the frontier
    both shrinks and drops below ``n / beta`` (do-while hysteresis).

    ``edges_processed`` is the early-exit work model (a bottom-up scan
    stops at its first frontier hit — what real hardware touches);
    ``edges_gathered`` whatever the substrate actually examined.
    """
    n = graph.num_vertices
    if n == 0:
        result = CCResult(labels=np.arange(0, dtype=VERTEX_DTYPE))
        result.run_stats = backend.run_stats()
        return result
    sentinel = n
    pi = backend.init_labels(n, phase="I", fill=sentinel)
    result = CCResult(labels=pi)
    deg = np.asarray(graph.degree())

    edges_modeled = 0
    edges_gathered = 0
    td_steps = 0
    bu_steps = 0
    step_edges: list[int] = []

    # GAP's heuristic state: edges_to_check counts unexplored out-degree
    # and only ever decreases; scout is the current frontier's out-degree.
    edges_to_check = graph.num_directed_edges
    cursor = 0
    while cursor < n:
        if int(pi[cursor]) != sentinel:
            cursor += 1
            continue
        label = cursor
        pi[cursor] = label
        frontier = np.asarray([cursor], dtype=VERTEX_DTYPE)
        while frontier.size:
            scout = int(deg[frontier].sum())
            if scout > edges_to_check / alpha:
                # Bottom-up regime: sweep until the frontier both shrinks
                # and drops below n / beta (GAP's do-while hysteresis).
                awake = frontier.shape[0]
                while True:
                    # Pooled per-round mask: the pool allocates once and
                    # every later bottom-up round reuses the same buffer.
                    in_frontier = backend.pool.get("bu-mask", n, np.bool_)
                    in_frontier[:] = False
                    in_frontier[frontier] = True
                    bu_steps += 1
                    phase = phase_label(
                        "B", round=bu_steps, frontier=int(awake)
                    )
                    backend.record_frontier(int(awake), phase=phase)
                    frontier, modeled, gathered = backend.bottom_up_pass(
                        pi, graph, in_frontier, label, sentinel, phase=phase
                    )
                    edges_modeled += modeled
                    edges_gathered += gathered
                    step_edges.append(modeled)
                    backend.beat(
                        phase, frontier=int(frontier.shape[0])
                    )
                    prev_awake, awake = awake, frontier.shape[0]
                    if awake == 0 or (
                        awake < prev_awake and awake <= n / beta
                    ):
                        break
                edges_to_check = max(
                    edges_to_check - int(deg[frontier].sum()), 0
                )
            else:
                edges_to_check = max(edges_to_check - scout, 0)
                td_steps += 1
                step_edges.append(scout)
                edges_modeled += scout
                edges_gathered += scout
                if scout == 0:
                    frontier = np.empty(0, dtype=VERTEX_DTYPE)
                else:
                    phase = phase_label(
                        "T", round=td_steps, frontier=int(frontier.shape[0])
                    )
                    backend.record_frontier(
                        int(frontier.shape[0]), phase=phase
                    )
                    frontier = backend.frontier_expand(
                        pi, graph, frontier, phase=phase
                    )
                    backend.beat(
                        phase, frontier=int(frontier.shape[0])
                    )
        cursor += 1
    # step_edges: modeled edges examined per step, in execution order
    # (Fig. 8b input).
    result.edges_processed = edges_modeled
    result.edges_gathered = edges_gathered
    result.top_down_steps = td_steps
    result.bottom_up_steps = bu_steps
    result.bfs_steps = td_steps + bu_steps
    result.step_edges = step_edges
    result.labels = pi
    result.run_stats = backend.run_stats()
    return result


BFS_FINISH = FinishSpec(
    name="bfs",
    fn=bfs_pipeline,
    description="per-component parallel BFS (linear work, serial over "
    "components)",
    whole_graph=True,
)

DOBFS_FINISH = FinishSpec(
    name="dobfs",
    fn=dobfs_pipeline,
    description="direction-optimizing BFS (Beamer et al.): top-down / "
    "bottom-up switching",
    params=("alpha", "beta"),
    whole_graph=True,
)
