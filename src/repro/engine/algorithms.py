"""Built-in algorithm registrations.

Imported lazily by the registry on first lookup.  Each entry binds a
registry name to its engine entry point with metadata: a one-line
description, default parameters, and the execution backends it supports.
The classical algorithms are *canonical plans* — fixed points of the
sampling × finish space (:mod:`repro.engine.plan`) whose composed
execution is bit-identical to the historical monolithic pipelines
(``auto`` is the measured-best of them, Afforest's ``kout+settle``);
only the sequential reference remains a single-substrate wrapper (all
return the unified :class:`~repro.engine.result.CCResult`).

Composed plan names (``"kout+sv"`` and friends) need no registration:
:func:`repro.engine.registry.get_algorithm` resolves any
``<sampling>+<finish>`` name through the plan registry directly.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends import ExecutionBackend
from repro.engine.finish import DEFAULT_ALPHA, DEFAULT_BETA
from repro.engine.plan import PLAN_BACKENDS, run_plan
from repro.engine.registry import register
from repro.engine.result import CCResult
from repro.graph.csr import CSRGraph
from repro.unionfind.sequential import sequential_components

#: substrates the composed plans run on; the sequential reference wraps
#: a scalar implementation and stays vectorized-only.
PIPELINE_BACKENDS = PLAN_BACKENDS


@register(
    "afforest",
    description="Afforest: neighbour-round sampling + component skipping "
    "(the paper's algorithm, Fig. 5; canonical plan kout+settle)",
    backends=PIPELINE_BACKENDS,
    instrumented=True,
)
def _run_afforest(graph: CSRGraph, backend: ExecutionBackend, **params) -> CCResult:
    """Engine entry point for Afforest."""
    return run_plan("kout+settle", graph, backend, **params)


@register(
    "afforest-noskip",
    description="Afforest with large-component skipping disabled "
    "(the 'no skip' configuration of Figs. 7b/8b)",
    defaults={"skip_largest": False},
    backends=PIPELINE_BACKENDS,
    instrumented=True,
)
def _run_afforest_noskip(
    graph: CSRGraph, backend: ExecutionBackend, **params
) -> CCResult:
    """Engine entry point for Afforest without skipping."""
    return run_plan("kout+settle", graph, backend, **params)


@register(
    "sv",
    description="Shiloach-Vishkin tree hooking (GAP formulation): "
    "hook + shortcut over every edge per iteration",
    backends=PIPELINE_BACKENDS,
    instrumented=True,
)
def _run_sv(graph: CSRGraph, backend: ExecutionBackend, **params) -> CCResult:
    """Engine entry point for Shiloach–Vishkin."""
    return run_plan("none+sv", graph, backend, **params)


@register(
    "fastsv",
    description="FastSV-style scatter-min hooking with per-iteration "
    "pointer jumping (canonical plan none+fastsv)",
    backends=PIPELINE_BACKENDS,
    instrumented=True,
)
def _run_fastsv(graph: CSRGraph, backend: ExecutionBackend, **params) -> CCResult:
    """Engine entry point for FastSV."""
    return run_plan("none+fastsv", graph, backend, **params)


@register(
    "lp",
    description="synchronous min-label propagation (O(D*|E|) work)",
    backends=PIPELINE_BACKENDS,
    instrumented=True,
)
def _run_lp(graph: CSRGraph, backend: ExecutionBackend, **params) -> CCResult:
    """Engine entry point for synchronous label propagation."""
    return run_plan("none+lp", graph, backend, **params)


@register(
    "lp-datadriven",
    description="data-driven (frontier) min-label propagation",
    backends=PIPELINE_BACKENDS,
    instrumented=True,
)
def _run_lp_datadriven(
    graph: CSRGraph, backend: ExecutionBackend, **params
) -> CCResult:
    """Engine entry point for frontier label propagation."""
    return run_plan("none+lp-datadriven", graph, backend, **params)


@register(
    "bfs",
    description="per-component parallel BFS (linear work, serial over "
    "components)",
    backends=PIPELINE_BACKENDS,
    instrumented=True,
)
def _run_bfs(graph: CSRGraph, backend: ExecutionBackend, **params) -> CCResult:
    """Engine entry point for BFS-CC."""
    return run_plan("none+bfs", graph, backend, **params)


@register(
    "dobfs",
    description="direction-optimizing BFS (Beamer et al.): top-down / "
    "bottom-up switching",
    defaults={"alpha": DEFAULT_ALPHA, "beta": DEFAULT_BETA},
    backends=PIPELINE_BACKENDS,
    instrumented=True,
)
def _run_dobfs(graph: CSRGraph, backend: ExecutionBackend, **params) -> CCResult:
    """Engine entry point for DOBFS-CC."""
    return run_plan("none+dobfs", graph, backend, **params)


@register(
    "auto",
    description="the measured-best plan on every graph: Afforest's "
    "kout+settle (sampling + giant-component skip), with no probes",
    backends=PIPELINE_BACKENDS,
    instrumented=True,
)
def _run_auto(graph: CSRGraph, backend: ExecutionBackend, **params) -> CCResult:
    """Engine entry point for ``auto`` (see :mod:`repro.engine.auto`)."""
    return run_plan("kout+settle", graph, backend, **params)


@register(
    "sequential",
    description="sequential union-find reference (exact, single-threaded)",
)
def _run_sequential(
    graph: CSRGraph, backend: ExecutionBackend, **params
) -> CCResult:
    """Engine entry point for the sequential union-find reference."""
    labels = np.asarray(sequential_components(graph, **params))
    return CCResult(labels=labels)
