"""Work-efficiency comparison across algorithms (Sec. V framing).

The paper's central quantitative lens is *edges processed*: optimal CC
work is O(|V|) while traversal/tree-hooking baselines pay O(|E|) to
O(D·|E|).  :func:`work_efficiency_report` measures this for every
algorithm on one graph, normalising by the directed edge count, so the
paper's work hierarchy

    afforest  <  dobfs  <=  bfs  <  sv  <=  lp

can be read (and asserted) directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import run
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class WorkRecord:
    """Edges processed by one algorithm on one graph."""

    algorithm: str
    edges_processed: int
    edges_per_directed_edge: float  # processed / |E_directed|
    detail: str = ""


def work_efficiency_report(graph: CSRGraph) -> list[WorkRecord]:
    """Per-algorithm processed-edge counts for ``graph``.

    Counts are the per-algorithm natural work units (directed edge
    examinations for all; early-exit modeled edges for DOBFS; touched
    edge slots for Afforest) — the same units the paper's analysis uses.
    """
    denom = max(graph.num_directed_edges, 1)
    records = []

    r = run("afforest", graph)
    records.append(
        WorkRecord(
            "afforest",
            r.edges_touched,
            r.edges_touched / denom,
            f"skipped {r.edges_skipped}",
        )
    )
    rn = run("afforest-noskip", graph)
    records.append(
        WorkRecord(
            "afforest-noskip", rn.edges_touched, rn.edges_touched / denom
        )
    )
    d = run("dobfs", graph)
    records.append(
        WorkRecord(
            "dobfs",
            d.edges_processed,
            d.edges_processed / denom,
            f"{d.bottom_up_steps} bottom-up steps",
        )
    )
    b = run("bfs", graph)
    records.append(
        WorkRecord("bfs", b.edges_processed, b.edges_processed / denom)
    )
    s = run("sv", graph)
    records.append(
        WorkRecord(
            "sv",
            s.edges_processed,
            s.edges_processed / denom,
            f"{s.iterations} iterations",
        )
    )
    lp = run("lp", graph)
    records.append(
        WorkRecord(
            "lp",
            lp.edges_processed,
            lp.edges_processed / denom,
            f"{lp.iterations} iterations",
        )
    )
    lpd = run("lp-datadriven", graph)
    records.append(
        WorkRecord(
            "lp-datadriven", lpd.edges_processed, lpd.edges_processed / denom
        )
    )
    return records


def work_ratio(records: list[WorkRecord], a: str, b: str) -> float:
    """How many times more edges ``b`` processes than ``a``."""
    by_name = {r.algorithm: r for r in records}
    num = by_name[b].edges_processed
    den = max(by_name[a].edges_processed, 1)
    return num / den
