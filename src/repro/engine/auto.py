"""The ``auto`` algorithm: the measured-best plan, ``kout+settle``.

``auto`` runs Afforest's plan (neighbour-round sampling, giant-component
skip, settle finish) on every graph and is registered like ``afforest``.
It probes nothing: no plan chosen from degree skew or a BFS
pseudo-diameter beat ``kout+settle`` on any measured input, and the one
decision left after sampling, whether to skip the giant component,
never lost by more than run noise when taken (``docs/plans.md`` has the
tables).
"""

from __future__ import annotations

from repro.engine.plan import CANONICAL_PLANS
from repro.graph.csr import CSRGraph
from repro.obs import Tracer

__all__ = ["select_plan"]


def select_plan(
    graph: CSRGraph, *, tracer: Tracer | None = None
) -> tuple[str, dict]:
    """Return ``("kout+settle", {})`` without doing any work on ``graph``.

    Kept with its old signature for callers that time plan selection as
    a layer of its own: selection is now free, and it reports no probe
    statistics because it takes none.
    """
    return CANONICAL_PLANS["auto"], {}
