"""Union-find settle: Afforest's final link phase as a finish.

One ``link_remaining`` pass over every edge slot the sampling phase did
not consume (``ctx.final_start`` onward), skipping vertices in the giant
component when the plan's glue identified one (safe by the paper's
Theorem 3: undirected edges are stored in both directions, so the copies
owned by non-skipped endpoints keep cross-component connectivity), then
a final compress turning π into the component labeling.
"""

from __future__ import annotations

from repro.engine.phase import FinishSpec, PlanContext
from repro.obs import phase_label

__all__ = ["SETTLE", "settle_finish"]


def settle_finish(ctx: PlanContext) -> None:
    """Afforest final phase (``H`` link, ``C*`` compress)."""
    backend, pi, result = ctx.backend, ctx.pi, ctx.result
    final, skipped, rounds = backend.link_remaining(
        pi, ctx.graph, ctx.final_start, ctx.largest, phase="H"
    )
    result.edges_final = final
    result.edges_skipped = skipped
    if rounds is not None:
        result.link_rounds.append(rounds)
    passes = backend.compress(pi, phase=phase_label("C", final=True))
    if passes is not None:
        result.compress_passes.append(passes)
    backend.beat("H")


SETTLE = FinishSpec(
    name="settle",
    fn=settle_finish,
    description="union-find settle (Afforest final phase): link remaining "
    "edge slots with component skipping, then compress",
    supports_skip=True,
)
