"""Quickstart: connected components with Afforest in five minutes.

Builds a small multi-component graph by hand, runs every algorithm in the
library on it, and shows the detailed result object Afforest returns.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Build a graph.  GraphBuilder handles symmetrization and CSR
    #    assembly; you can also use repro.from_edge_list / from_edge_array
    #    or any generator from repro.generators.
    # ------------------------------------------------------------------ #
    builder = repro.GraphBuilder(14)
    builder.add_path([0, 1, 2, 3, 4])        # a path component
    builder.add_cycle([5, 6, 7])             # a triangle
    builder.add_clique([8, 9, 10, 11])       # a clique
    builder.add_edge(12, 13)                 # a pair
    graph = builder.build()
    print(f"graph: {graph}")

    # ------------------------------------------------------------------ #
    # 2. One-liner: component labels via Afforest (the default).
    # ------------------------------------------------------------------ #
    labels = repro.connected_components(graph)
    print(f"labels: {labels.tolist()}")
    print(f"components: {len(np.unique(labels))}")

    # ------------------------------------------------------------------ #
    # 3. The detailed result: work counters show how little of the graph
    #    Afforest actually touched.
    # ------------------------------------------------------------------ #
    result = repro.engine.run("afforest", graph, neighbor_rounds=2)
    print(
        f"afforest: {result.num_components} components | "
        f"sampled {result.edges_sampled} edge slots, "
        f"final-phase {result.edges_final}, skipped {result.edges_skipped} "
        f"({result.skip_fraction:.0%} of the remainder)"
    )

    # ------------------------------------------------------------------ #
    # 4. Every algorithm agrees on the partition (labels may differ by a
    #    renaming; canonical form compares partitions).
    # ------------------------------------------------------------------ #
    from repro.analysis import canonical_labels

    reference = canonical_labels(labels)
    for algorithm in ("sv", "lp", "bfs", "dobfs", "sequential"):
        other = canonical_labels(
            repro.connected_components(graph, algorithm)
        )
        status = "agrees" if np.array_equal(other, reference) else "DISAGREES"
        print(f"  {algorithm:>10}: {status}")

    # ------------------------------------------------------------------ #
    # 5. Scale up: a Kronecker (Graph500) graph with 2**14 vertices.
    # ------------------------------------------------------------------ #
    big = repro.generators.kronecker_graph(scale=14, edge_factor=16, seed=0)
    result = repro.engine.run("afforest", big)
    print(
        f"\nkron scale 14: {big.num_vertices} vertices, {big.num_edges} edges -> "
        f"{result.num_components} components "
        f"(giant label {result.largest_label}, "
        f"{result.edges_skipped} edge slots skipped)"
    )


if __name__ == "__main__":
    main()
