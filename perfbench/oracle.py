"""Correctness checks, kept outside every timed region.

Labelings are compared with ``scipy_components``, which shares no code
with the engine.  Serving epochs are compared with a reference built from
scipy's connected components of the base graph plus the stream prefix the
epoch absorbed; where the workload asks for it they are also held
bit-identical to ``ConnectivityService.batch_resolve``.
"""

from __future__ import annotations

import sys

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.analysis.verify import canonical_labels, equivalent_labelings
from repro.graph.csr import CSRGraph
from repro.graph.properties import scipy_components

from perfbench.spans import Recorder

#: Failure descriptions echoed to stderr before the run gives up listing.
_MAX_REPORTED = 10


class Tally:
    """Operations attempted and failed, across every check of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= _MAX_REPORTED:
                print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class LabelOracle:
    """The scipy reference partition of one graph."""

    def __init__(self, graph: CSRGraph, rec: Recorder) -> None:
        with rec.span("graph.scipy_components", "repro.graph"):
            self.components = scipy_components(graph)
        with rec.span("analysis.canonical_labels", "repro.analysis.verify"):
            self.canonical = canonical_labels(self.components)

    def agrees(self, labels: np.ndarray) -> bool:
        """True iff ``labels`` induce the reference partition."""
        # Engine labelings name each component by its smallest vertex, so
        # the exact compare settles almost every check without a sort.
        if np.array_equal(labels, self.canonical):
            return True
        return equivalent_labelings(labels, self.canonical)

    def with_stream(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Min-vertex labels of the graph plus the edges ``src``-``dst``.

        The stream edges join whole base components, so the answer is the
        components of the small quotient graph over base component ids.
        """
        comp = self.components
        c = int(comp.max()) + 1 if comp.size else 0
        ones = np.ones(src.shape[0], dtype=np.int8)
        quotient = sp.csr_matrix(
            (ones, (comp[src], comp[dst])), shape=(c, c)
        )
        _, merged = csgraph.connected_components(quotient, directed=False)
        return canonical_labels(merged[comp])
