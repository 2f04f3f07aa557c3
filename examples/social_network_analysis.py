"""Social-network analysis: components of a Twitter-like follower graph.

The paper's motivating workload: large-scale social networks have one
giant component plus millions of satellites, and CC identification is the
entry point for downstream analytics (community detection, influence
propagation run per-component).  This example:

1. generates a power-law follower-graph proxy (Chung–Lu);
2. profiles the component structure (giant fraction, satellite census);
3. compares Afforest against the baselines on wall-clock and work;
4. shows how large-component skipping exploits exactly this structure.

Run:  python examples/social_network_analysis.py
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.generators import chung_lu_graph
from repro.graph.properties import component_census, degree_statistics


def main() -> None:
    print("generating follower-graph proxy (Chung-Lu, 2**16 users)...")
    graph = chung_lu_graph(
        1 << 16, exponent=2.1, mean_degree=24.0, seed=7
    )
    deg = degree_statistics(graph)
    print(
        f"  {graph.num_vertices} users, {graph.num_edges} follow edges | "
        f"degree mean {deg.mean:.1f}, max {deg.max} (hubs!)"
    )

    # ------------------------------------------------------------------ #
    # Component structure: the giant + satellites.
    # ------------------------------------------------------------------ #
    census = component_census(graph)
    sizes = census.sizes
    print(
        f"  {census.num_components} components; giant covers "
        f"{census.largest_fraction:.1%} of users"
    )
    satellite = sizes[1:]
    if satellite.size:
        print(
            f"  satellites: {satellite.size} components, "
            f"largest {int(satellite[0])}, median {int(np.median(satellite))}"
        )

    # ------------------------------------------------------------------ #
    # Algorithm comparison.
    # ------------------------------------------------------------------ #
    print("\nalgorithm comparison:")
    timings = {}
    for name in ("afforest", "afforest-noskip", "sv", "lp", "dobfs"):
        t0 = time.perf_counter()
        repro.engine.run(name, graph)
        timings[name] = time.perf_counter() - t0
        print(f"  {name:>16}: {timings[name] * 1000:8.1f} ms")
    print(
        f"  afforest speedup over SV: "
        f"{timings['sv'] / timings['afforest']:.1f}x"
    )

    # ------------------------------------------------------------------ #
    # Why: the skip heuristic removes the giant component's edges from
    # the final phase entirely.
    # ------------------------------------------------------------------ #
    result = repro.engine.run("afforest", graph)
    print(
        f"\nwork profile: sampled {result.edges_sampled} slots "
        f"({result.neighbor_rounds} rounds), final {result.edges_final}, "
        f"skipped {result.edges_skipped} "
        f"= {result.skip_fraction:.1%} of the post-sampling work"
    )

    # ------------------------------------------------------------------ #
    # Downstream use: per-component analytics on the satellites.
    # ------------------------------------------------------------------ #
    labels = result.labels
    giant = result.largest_label
    satellite_users = np.nonzero(labels != giant)[0]
    print(
        f"\ndownstream: {satellite_users.size} users outside the giant "
        f"component would be routed to per-community processing"
    )


if __name__ == "__main__":
    main()
