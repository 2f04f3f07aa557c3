"""Process-backend acceptance tests: OS processes over shared-memory π.

The acceptance bar from the issue: ``engine.run("afforest", g,
backend=ProcessParallelBackend(workers=4))`` must be equivalent to the
vectorized backend on every graph family.  Both backends use the
min-label convention, so correct runs are not merely partition-equivalent
but bit-identical — the stronger assertion is used wherever labels are
dense vertex ids.
"""

import numpy as np
import pytest

from repro import engine
from repro.analysis import equivalent_labelings
from repro.engine import ProcessParallelBackend
from repro.errors import ConfigurationError
from repro.generators.components import component_fraction_graph
from repro.generators.datasets import CPU_SUITE, load_dataset
from repro.generators.lattice import grid_graph
from repro.generators.powerlaw import barabasi_albert_graph
from repro.graph import from_edge_list
from repro.graph.csr import CSRGraph
from repro.unionfind import sequential_components

ALGORITHMS = ("afforest", "afforest-noskip", "sv")


def _family_graphs() -> list[tuple[str, CSRGraph]]:
    return [
        ("powerlaw", barabasi_albert_graph(800, edges_per_vertex=4, seed=3)),
        ("lattice", grid_graph(25, 25)),
        (
            "multi-component",
            component_fraction_graph(600, 0.25, seed=11),
        ),
        ("empty", from_edge_list([], num_vertices=0)),
        ("singleton", from_edge_list([], num_vertices=1)),
    ]


@pytest.fixture(scope="module", params=[1, 2, 4])
def process_backend(request):
    """One persistent pool per worker count, shared across this module."""
    backend = ProcessParallelBackend(workers=request.param)
    yield backend
    backend.close()


class TestProcessVectorizedEquivalence:
    @pytest.mark.parametrize(
        "family,graph", _family_graphs(), ids=lambda v: v if isinstance(v, str) else ""
    )
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_labels_match_vectorized(self, algorithm, family, graph, process_backend):
        vec = engine.run(algorithm, graph)
        proc = engine.run(algorithm, graph, backend=process_backend)
        # Min-label convention: same labels, not just the same partition.
        assert np.array_equal(vec.labels, proc.labels)
        assert vec.num_components == proc.num_components

    def test_matches_union_find_oracle(self, process_backend, random_graph_factory):
        g = random_graph_factory(120, 300, seed=8)
        ref = sequential_components(g)
        result = engine.run("afforest", g, backend=process_backend)
        assert equivalent_labelings(result.labels, ref)

    def test_labels_survive_backend_close(self):
        g = barabasi_albert_graph(200, edges_per_vertex=3, seed=5)
        backend = ProcessParallelBackend(workers=2)
        result = engine.run("afforest", g, backend=backend)
        backend.close()
        # Labels were detached from shared memory — still readable.
        assert int(result.labels.min()) >= 0

    def test_string_backend_spec(self):
        g = grid_graph(10, 10)
        result = engine.run("afforest", g, backend="process", workers=2)
        vec = engine.run("afforest", g)
        assert np.array_equal(result.labels, vec.labels)
        assert result.backend == "process"


def _plan_graphs() -> list[tuple[str, CSRGraph]]:
    graphs = [(name, load_dataset(name, "tiny")) for name in CPU_SUITE]
    return graphs + [
        ("lattice", grid_graph(16, 16)),
        ("empty", from_edge_list([], num_vertices=0)),
        ("isolated", from_edge_list([], num_vertices=5)),
    ]


#: every sampled plan (the kout and subgraph phases link through the
#: inherited vectorized kernels, as does the settle finish), plus
#: Afforest without the skip.
LINK_PLANS = [
    f"{sampling}+{finish}"
    for sampling in ("kout", "subgraph", "ldd", "bfs")
    for finish in ("settle", "sv", "fastsv", "lp", "lp-datadriven")
] + ["afforest-noskip"]


@pytest.fixture(scope="module")
def two_workers():
    backend = ProcessParallelBackend(workers=2)
    yield backend
    backend.close()


@pytest.mark.parametrize(
    "family,graph", _plan_graphs(), ids=lambda v: v if isinstance(v, str) else ""
)
@pytest.mark.parametrize("plan", LINK_PLANS)
def test_link_plans_bit_identical_to_vectorized(plan, family, graph, two_workers):
    vec = engine.run(plan, graph)
    proc = engine.run(plan, graph, backend=two_workers)
    assert np.array_equal(vec.labels, proc.labels)
    if plan.startswith(("ldd+", "bfs+")):
        # The traversal samplings push through the worker frontier tasks,
        # whose slices read labels other slices already lowered: the
        # sampled forest, and the counters that follow from it, depend on
        # scheduling.  Only the labels are substrate-independent.
        return
    for field in ("edges_sampled", "edges_final", "edges_skipped", "link_rounds"):
        assert getattr(proc, field) == getattr(vec, field), field


def _worker_phases(result) -> set[str]:
    """Names of the spans that carry worker-track children."""
    return {
        span.name
        for span, _ in result.trace.walk()
        if any(c.track and c.track.startswith("worker-") for c in span.children)
    }


@pytest.mark.parametrize("algorithm,phase", [("fastsv", "HS"), ("sv", "H")])
def test_hooking_dispatches_to_workers(algorithm, phase, two_workers):
    g = barabasi_albert_graph(800, edges_per_vertex=4, seed=3)
    result = engine.run(algorithm, g, backend=two_workers, profile=True)
    assert phase in _worker_phases(result)


class TestProcessBackendStress:
    def test_repeated_runs_are_stable(self):
        """Many runs on one pool: no segment leak, no label drift."""
        g = barabasi_albert_graph(400, edges_per_vertex=4, seed=13)
        oracle = sequential_components(g)
        with ProcessParallelBackend(workers=4) as backend:
            for trial in range(12):
                algorithm = ALGORITHMS[trial % len(ALGORITHMS)]
                result = engine.run(algorithm, g, backend=backend)
                assert equivalent_labelings(result.labels, oracle), (
                    f"trial {trial} ({algorithm}) diverged from the oracle"
                )

    def test_interleaved_graphs_on_one_pool(self):
        """Switching graphs reuses the pool but remaps shared mirrors."""
        g1 = grid_graph(12, 12)
        g2 = barabasi_albert_graph(300, edges_per_vertex=3, seed=1)
        with ProcessParallelBackend(workers=2) as backend:
            for g in (g1, g2, g1, g2):
                result = engine.run("afforest", g, backend=backend)
                vec = engine.run("afforest", g)
                assert np.array_equal(result.labels, vec.labels)


class TestProcessBackendConfiguration:
    def test_worker_default_positive(self):
        backend = ProcessParallelBackend()
        assert backend.workers >= 1
        backend.close()

    def test_profile_includes_settle_and_total(self):
        g = barabasi_albert_graph(300, edges_per_vertex=3, seed=2)
        with ProcessParallelBackend(workers=2) as backend:
            result = engine.run("afforest", g, backend=backend, profile=True)
            lp = engine.run("lp-datadriven", g, backend=backend, profile=True)
        assert "total" in result.phase_seconds
        assert result.phase_seconds["total"] > 0
        # Afforest links with the in-process kernels: no repair sweep.
        assert "H-settle" not in result.phase_seconds
        assert result.counters.get("settle_passes", 0) == 0
        # The data-driven push still races across blocks and settles.
        assert "P*" in lp.phase_seconds

    def test_unsupported_algorithm_rejected(self, mixed_graph):
        with ProcessParallelBackend(workers=1) as backend:
            with pytest.raises(ConfigurationError, match="does not support"):
                engine.run("sequential", mixed_graph, backend=backend)

    def test_result_stamped_with_backend_kind(self, mixed_graph):
        with ProcessParallelBackend(workers=2) as backend:
            result = engine.run("sv", mixed_graph, backend=backend)
        assert result.backend == "process"
