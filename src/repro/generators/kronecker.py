"""Kronecker (R-MAT) graphs with Graph500 parameters.

The paper's ``kron``/``kron-gpu`` datasets come from the GAP suite, which
uses the Graph500 generator: ``2**scale`` vertices, ``edge_factor``
undirected edges per vertex, and quadrant probabilities
``A = 0.57, B = 0.19, C = 0.19`` (``D = 0.05`` implied).

The sampler is fully vectorised: each of the ``scale`` recursion levels
draws one quadrant decision for *all* edges simultaneously, so generation is
``O(scale * m)`` NumPy work with no Python-level per-edge loop.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import ConfigurationError
from repro.generators.rng import make_rng, require_nonnegative, require_positive
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList
from repro.graph.csr import CSRGraph

#: Graph500 / GAP quadrant probabilities.
GRAPH500_A = 0.57
GRAPH500_B = 0.19
GRAPH500_C = 0.19


def kronecker_edges(
    scale: int,
    num_edges: int,
    *,
    a: float = GRAPH500_A,
    b: float = GRAPH500_B,
    c: float = GRAPH500_C,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``num_edges`` R-MAT edge endpoints over ``2**scale`` vertices."""
    d = 1.0 - a - b - c
    if d < -1e-12 or min(a, b, c) < 0:
        raise ConfigurationError(
            f"R-MAT probabilities must be non-negative and sum <= 1 "
            f"(a={a}, b={b}, c={c})"
        )
    src = np.zeros(num_edges, dtype=VERTEX_DTYPE)
    dst = np.zeros(num_edges, dtype=VERTEX_DTYPE)
    # One reused buffer per quantity; every level works in place.
    r = np.empty(num_edges)
    quadrant = np.empty(num_edges, dtype=np.uint8)
    above = np.empty(num_edges, dtype=bool)
    bit = np.empty(num_edges, dtype=np.uint8)
    for _ in range(scale):
        rng.random(out=r)
        # Quadrant index q: [0,a) -> 0 (0,0); [a,a+b) -> 1 (0,1);
        # [a+b,a+b+c) -> 2 (1,0); rest -> 3 (1,1).  Row bit q >> 1,
        # column bit q & 1.
        np.greater_equal(r, a, out=quadrant)
        for threshold in (a + b, a + b + c):
            np.greater_equal(r, threshold, out=above)
            quadrant += above
        np.right_shift(quadrant, 1, out=bit)
        np.left_shift(src, 1, out=src)
        np.bitwise_or(src, bit, out=src)
        np.bitwise_and(quadrant, 1, out=bit)
        np.left_shift(dst, 1, out=dst)
        np.bitwise_or(dst, bit, out=dst)
    return src, dst


def kronecker_graph(
    scale: int,
    *,
    edge_factor: float = 16.0,
    a: float = GRAPH500_A,
    b: float = GRAPH500_B,
    c: float = GRAPH500_C,
    seed: int | np.random.Generator | None = 0,
    permute_labels: bool = True,
    sort_neighbors: bool = True,
) -> CSRGraph:
    """R-MAT graph with ``2**scale`` vertices.

    Parameters
    ----------
    scale:
        log2 of the vertex count.
    edge_factor:
        Undirected edge draws per vertex (GAP default 16).
    a, b, c:
        Quadrant probabilities (Graph500 defaults).
    permute_labels:
        Randomly permute vertex ids, as Graph500 mandates, so vertex id
        carries no degree information.
    """
    require_nonnegative("scale", scale)
    require_nonnegative("edge_factor", edge_factor)
    rng = make_rng(seed)
    n = 1 << scale
    require_positive("num_vertices", n)
    m = int(round(edge_factor * n))
    src, dst = kronecker_edges(scale, m, a=a, b=b, c=c, rng=rng)
    edges = EdgeList(n, src, dst)
    if permute_labels:
        perm = rng.permutation(n).astype(VERTEX_DTYPE)
        edges = edges.relabeled(perm, n)
    return build_csr(edges, sort_neighbors=sort_neighbors)
