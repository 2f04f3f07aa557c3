"""Tests for execution backends: one pipeline, two substrates."""

import numpy as np
import pytest

from repro import engine
from repro.analysis import equivalent_labelings
from repro.engine import SimulatedBackend, VectorizedBackend
from repro.errors import ConfigurationError
from repro.parallel.machine import SimulatedMachine
from repro.unionfind import sequential_components


class TestBackendEquivalence:
    """The same pipeline must agree across substrates (acceptance check)."""

    @pytest.mark.parametrize("algorithm", ["afforest", "afforest-noskip", "sv"])
    def test_vectorized_vs_simulated_partition(self, algorithm, mixed_graph):
        vec = engine.run(algorithm, mixed_graph)
        sim = engine.run(
            algorithm,
            mixed_graph,
            backend=SimulatedBackend(SimulatedMachine(3, seed=7)),
        )
        assert equivalent_labelings(vec.labels, sim.labels)
        assert vec.num_components == sim.num_components

    @pytest.mark.parametrize("algorithm", ["afforest", "sv"])
    def test_equivalence_on_random_graph(self, algorithm, random_graph_factory):
        g = random_graph_factory(60, 150, seed=3)
        ref = sequential_components(g)
        vec = engine.run(algorithm, g)
        sim = engine.run(
            algorithm, g, backend=SimulatedBackend(SimulatedMachine(4, seed=1))
        )
        assert equivalent_labelings(vec.labels, ref)
        assert equivalent_labelings(sim.labels, ref)

    def test_afforest_edge_accounting_matches_across_backends(self, mixed_graph):
        vec = engine.run("afforest", mixed_graph)
        sim = engine.run(
            "afforest",
            mixed_graph,
            backend=SimulatedBackend(SimulatedMachine(2, seed=5)),
        )
        m = mixed_graph.num_directed_edges
        assert vec.edges_sampled == sim.edges_sampled
        assert vec.edges_touched + vec.edges_skipped == m
        assert sim.edges_touched + sim.edges_skipped == m

    def test_sv_iteration_parity(self, two_cliques):
        vec = engine.run("sv", two_cliques)
        sim = engine.run(
            "sv",
            two_cliques,
            backend=SimulatedBackend(SimulatedMachine(2, seed=2)),
        )
        assert vec.iterations >= 1
        assert sim.iterations >= 1
        assert vec.edges_processed % two_cliques.num_directed_edges == 0


class TestBackendValidation:
    def test_vectorized_only_algorithm_rejects_simulated(self, mixed_graph):
        backend = SimulatedBackend(SimulatedMachine(2))
        with pytest.raises(ConfigurationError, match="does not support"):
            engine.run("sequential", mixed_graph, backend=backend)

    def test_error_names_supported_backends(self, mixed_graph):
        backend = SimulatedBackend(SimulatedMachine(2))
        with pytest.raises(ConfigurationError, match="vectorized"):
            engine.run("sequential", mixed_graph, backend=backend)


class TestProvenance:
    def test_result_stamped_with_run_context(self, mixed_graph):
        result = engine.run("afforest", mixed_graph, neighbor_rounds=1)
        assert result.algorithm == "afforest"
        assert result.backend == "vectorized"
        assert result.params["neighbor_rounds"] == 1

    def test_simulated_backend_stamped(self, mixed_graph):
        result = engine.run(
            "sv",
            mixed_graph,
            backend=SimulatedBackend(SimulatedMachine(2)),
        )
        assert result.backend == "simulated"
        assert result.run_stats is not None

    def test_noskip_defaults_recorded(self, mixed_graph):
        result = engine.run("afforest-noskip", mixed_graph)
        assert result.params["skip_largest"] is False
        assert result.largest_label is None


class TestProfiling:
    def test_afforest_phase_keys(self, mixed_graph):
        result = engine.run("afforest", mixed_graph, profile=True)
        assert set(result.phase_seconds) == {
            "L0", "C0", "L1", "C1", "F", "H-gather", "H", "C*", "total",
        }
        assert all(s >= 0 for s in result.phase_seconds.values())

    def test_sv_phase_keys(self, mixed_graph):
        result = engine.run("sv", mixed_graph, profile=True)
        labels = set(result.phase_seconds)
        expected = {"total"}
        for i in range(1, result.iterations + 1):
            expected.add(f"H{i}")
            # The converged final iteration skips its trailing compress
            # (the hook pass changed nothing, so π is already flat).
            if i < result.iterations or result.iterations == 1:
                expected.add(f"S{i}")
        assert labels == expected

    def test_total_phase_covers_run(self, mixed_graph):
        result = engine.run("afforest", mixed_graph, profile=True)
        phases = dict(result.phase_seconds)
        total = phases.pop("total")
        # Wall time includes every instrumented phase plus dispatch overhead.
        assert total >= max(phases.values())

    def test_uninstrumented_algorithm_gets_total_phase(self, mixed_graph):
        result = engine.run("sequential", mixed_graph, profile=True)
        assert set(result.phase_seconds) == {"total"}

    def test_no_profile_no_phases(self, mixed_graph):
        result = engine.run("afforest", mixed_graph)
        assert result.phase_seconds == {}

    def test_backend_left_disabled_after_profiled_run(self, mixed_graph):
        backend = VectorizedBackend()
        engine.run("afforest", mixed_graph, backend=backend, profile=True)
        assert not backend.tracer.enabled
        second = engine.run("afforest", mixed_graph, backend=backend)
        assert second.phase_seconds == {}


class TestSimulatedPhaseStructure:
    """Engine runs on the simulated machine keep the Fig. 7 phase bands."""

    def test_afforest_simulated_phases(self, mixed_graph):
        machine = SimulatedMachine(3, seed=11)
        result = engine.run(
            "afforest",
            mixed_graph,
            backend=SimulatedBackend(machine),
            neighbor_rounds=2,
        )
        ref = sequential_components(mixed_graph)
        assert equivalent_labelings(result.labels, ref)
        phases = [p.label for p in machine.stats.phases]
        assert phases == ["I", "L0", "C0", "L1", "C1", "F", "H", "C*"]
        assert result.run_stats is machine.stats

    def test_sv_simulated_phases(self, mixed_graph):
        machine = SimulatedMachine(2, seed=4)
        result = engine.run(
            "sv", mixed_graph, backend=SimulatedBackend(machine)
        )
        ref = sequential_components(mixed_graph)
        assert equivalent_labelings(result.labels, ref)
        phases = [p.label for p in machine.stats.phases]
        assert phases[0] == "I"
        # Every iteration contributes a hook + compress phase pair except
        # the converged final one, whose trailing compress is skipped.
        skipped = 1 if result.iterations > 1 else 0
        assert len(phases) == 1 + 2 * result.iterations - skipped

    def test_simulated_runs_deterministic_per_seed(self, two_cliques):
        a = engine.run(
            "afforest",
            two_cliques,
            backend=SimulatedBackend(SimulatedMachine(2, seed=9)),
        )
        b = engine.run(
            "afforest",
            two_cliques,
            backend=SimulatedBackend(SimulatedMachine(2, seed=9)),
        )
        assert np.array_equal(a.labels, b.labels)
        assert a.edges_sampled == b.edges_sampled

    def test_vectorized_entry_point_still_returns_counters(self, mixed_graph):
        result = engine.run("afforest", mixed_graph, profile=True)
        assert result.edges_touched + result.edges_skipped == \
            mixed_graph.num_directed_edges
        assert result.phase_seconds
