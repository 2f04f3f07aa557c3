"""Road-network resilience: connectivity under link failures.

High-diameter planar networks are the tree-hooking algorithms' home turf:
traversal- and propagation-based CC methods pay for the diameter, while
Afforest/SV compress it away.  This example simulates progressive road
closures and tracks how the network fragments — recomputing components
after each closure wave, the way a routing service would.

Run:  python examples/road_network_resilience.py
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.generators import road_network_graph
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList
from repro.graph.properties import pseudo_diameter


def drop_edges(graph, fraction: float, rng: np.random.Generator):
    """Remove a random fraction of undirected edges (road closures)."""
    src, dst = graph.undirected_edge_array()
    keep = rng.random(src.shape[0]) >= fraction
    return build_csr(
        EdgeList(graph.num_vertices, src[keep], dst[keep])
    )


def main() -> None:
    rng = np.random.default_rng(11)
    print("generating road network proxy (256x256 grid)...")
    graph = road_network_graph(256, 256, drop=0.03, highway=0.0002, seed=3)
    print(
        f"  {graph.num_vertices} junctions, {graph.num_edges} road segments, "
        f"diameter ~{pseudo_diameter(graph)}"
    )

    # ------------------------------------------------------------------ #
    # Why diameter matters: label propagation pays for every hop.
    # ------------------------------------------------------------------ #
    t0 = time.perf_counter()
    lp = repro.engine.run("lp", graph)
    t_lp = time.perf_counter() - t0
    t0 = time.perf_counter()
    af = repro.engine.run("afforest", graph)
    t_af = time.perf_counter() - t0
    print(
        f"\nbaseline check: LP needed {lp.iterations} iterations "
        f"({t_lp * 1000:.0f} ms); afforest {t_af * 1000:.0f} ms "
        f"({t_lp / t_af:.0f}x faster on this topology)"
    )

    # ------------------------------------------------------------------ #
    # Progressive failure: close 5%, 10%, ... of roads and re-solve.
    # ------------------------------------------------------------------ #
    print("\nprogressive closures:")
    print(f"{'closed':>8} {'components':>12} {'reachable_frac':>15} {'solve_ms':>9}")
    for fraction in (0.05, 0.10, 0.20, 0.30, 0.40):
        damaged = drop_edges(graph, fraction, rng)
        t0 = time.perf_counter()
        result = repro.engine.run("afforest", damaged)
        ms = (time.perf_counter() - t0) * 1000
        labels = result.labels
        giant = np.bincount(labels).max()
        print(
            f"{fraction:8.0%} {result.num_components:12d} "
            f"{giant / damaged.num_vertices:15.1%} {ms:9.1f}"
        )

    # ------------------------------------------------------------------ #
    # Point-to-point reachability after heavy damage.
    # ------------------------------------------------------------------ #
    damaged = drop_edges(graph, 0.35, rng)
    labels = repro.connected_components(damaged)
    depot = 0
    deliveries = rng.integers(0, damaged.num_vertices, size=10)
    reachable = [int(v) for v in deliveries if labels[v] == labels[depot]]
    print(
        f"\nafter 35% closures, {len(reachable)}/10 sampled delivery "
        f"points remain reachable from the depot"
    )


if __name__ == "__main__":
    main()
