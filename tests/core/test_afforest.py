"""Tests for the full Afforest algorithm (vectorized and simulated)."""

import numpy as np
import pytest

from repro import engine
from repro.analysis.verify import equivalent_labelings, is_valid_labeling
from repro.engine import SimulatedBackend
from repro.errors import ConfigurationError
from repro.generators import (
    component_fraction_graph,
    kronecker_graph,
    uniform_random_graph,
)
from repro.parallel import MemoryTrace, SimulatedMachine
from repro.unionfind import sequential_components


class TestCorrectness:
    @pytest.mark.parametrize("rounds", [0, 1, 2, 4])
    @pytest.mark.parametrize("skip", [True, False])
    def test_fixture_graphs(self, mixed_graph, rounds, skip):
        r = engine.run(
            "afforest", mixed_graph, neighbor_rounds=rounds, skip_largest=skip
        )
        assert equivalent_labelings(
            r.labels, sequential_components(mixed_graph)
        )

    def test_empty(self, empty_graph):
        r = engine.run("afforest", empty_graph)
        assert r.labels.shape == (0,)
        assert r.num_components == 0

    def test_single_vertex(self, single_vertex):
        r = engine.run("afforest", single_vertex)
        assert r.labels.tolist() == [0]

    def test_isolated(self, isolated_vertices):
        r = engine.run("afforest", isolated_vertices)
        assert r.num_components == 5

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs(self, random_graph_factory, seed):
        g = random_graph_factory(50, 90, seed)
        r = engine.run("afforest", g, seed=seed)
        assert is_valid_labeling(g, r.labels)

    def test_generator_families(self):
        for g in (
            uniform_random_graph(400, edge_factor=4, seed=0),
            kronecker_graph(9, edge_factor=8, seed=1),
            component_fraction_graph(600, 0.2, edge_factor=6, seed=2),
        ):
            r = engine.run("afforest", g)
            assert is_valid_labeling(g, r.labels)

    def test_rejects_negative_rounds(self, mixed_graph):
        with pytest.raises(ConfigurationError):
            engine.run("afforest", mixed_graph, neighbor_rounds=-1)


class TestWorkCounters:
    def test_skip_avoids_final_edges_on_giant(self):
        g = uniform_random_graph(2000, edge_factor=8, seed=0)
        with_skip = engine.run("afforest", g, skip_largest=True)
        without = engine.run("afforest", g, skip_largest=False)
        assert with_skip.edges_skipped > 0
        assert with_skip.edges_final < without.edges_final
        assert with_skip.skip_fraction > 0.9  # single giant component

    def test_sampled_edges_bounded_by_rounds(self):
        g = uniform_random_graph(500, edge_factor=8, seed=1)
        r = engine.run("afforest", g, neighbor_rounds=3)
        assert r.edges_sampled <= 3 * g.num_vertices

    def test_edge_accounting_consistent(self):
        g = kronecker_graph(8, edge_factor=8, seed=2)
        r = engine.run("afforest", g, skip_largest=True)
        # sampled + final + skipped = all directed slots.
        assert (
            r.edges_sampled + r.edges_final + r.edges_skipped
            == g.num_directed_edges
        )

    def test_noskip_processes_every_slot(self):
        g = kronecker_graph(8, edge_factor=8, seed=3)
        r = engine.run("afforest", g, skip_largest=False)
        assert r.edges_touched == g.num_directed_edges
        assert r.edges_skipped == 0

    def test_largest_label_identified(self):
        g = uniform_random_graph(1000, edge_factor=8, seed=4)
        r = engine.run("afforest", g)
        # Single giant component: its label is the minimum vertex (0).
        assert r.largest_label == 0


def _afforest_simulated(graph, machine, **kwargs):
    """Afforest on the simulated machine, via the engine registry."""
    return engine.run(
        "afforest", graph, backend=SimulatedBackend(machine), **kwargs
    )


class TestSimulated:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_matches_vectorized(self, workers, mixed_graph):
        m = SimulatedMachine(workers, schedule="cyclic")
        r = _afforest_simulated(mixed_graph, m)
        assert equivalent_labelings(
            r.labels, sequential_components(mixed_graph)
        )

    def test_random_interleavings(self, random_graph_factory):
        for seed in range(6):
            g = random_graph_factory(30, 50, seed)
            m = SimulatedMachine(
                4, schedule="cyclic", interleave="random", seed=seed
            )
            r = _afforest_simulated(g, m, seed=seed)
            assert equivalent_labelings(r.labels, sequential_components(g))

    def test_phase_structure(self, two_cliques):
        m = SimulatedMachine(2)
        _afforest_simulated(two_cliques, m, neighbor_rounds=2)
        labels = [p.label for p in m.stats.phases]
        assert labels == ["I", "L0", "C0", "L1", "C1", "F", "H", "C*"]

    def test_noskip_has_no_find_phase(self, two_cliques):
        m = SimulatedMachine(2)
        _afforest_simulated(two_cliques, m, skip_largest=False)
        labels = [p.label for p in m.stats.phases]
        assert "F" not in labels

    def test_trace_capture(self, two_cliques):
        trace = MemoryTrace()
        m = SimulatedMachine(2, trace=trace)
        _afforest_simulated(two_cliques, m)
        ta = trace.finalize()
        assert ta.num_events == m.stats.total_work

    def test_skip_counters(self):
        g = uniform_random_graph(300, edge_factor=8, seed=5)
        m = SimulatedMachine(4)
        r = _afforest_simulated(g, m)
        assert r.edges_skipped > 0
        # Same accounting identity as the vectorized driver.
        assert (
            r.edges_sampled + r.edges_final + r.edges_skipped
            == g.num_directed_edges
        )

    def test_empty_graph(self, empty_graph):
        m = SimulatedMachine(2)
        r = _afforest_simulated(empty_graph, m)
        assert r.labels.shape == (0,)


class TestSamplingModes:
    @pytest.mark.parametrize("sampling", ["first", "random"])
    @pytest.mark.parametrize("seed", range(4))
    def test_both_modes_exact(self, random_graph_factory, sampling, seed):
        g = random_graph_factory(60, 110, seed)
        r = engine.run("afforest", g, sampling=sampling, seed=seed)
        assert is_valid_labeling(g, r.labels)

    def test_random_mode_reprocesses(self):
        """Random sampling can't track consumed slots, so its final phase
        starts at slot 0 — the trade-off Sec. VI-A cites for first-k."""
        g = kronecker_graph(9, edge_factor=8, seed=1)
        first = engine.run("afforest", g, skip_largest=False, sampling="first")
        random_mode = engine.run("afforest", g, skip_largest=False, sampling="random")
        assert (
            random_mode.edges_final
            == g.num_directed_edges
        )
        assert first.edges_final < random_mode.edges_final

    def test_unknown_mode_rejected(self, mixed_graph):
        with pytest.raises(ConfigurationError):
            engine.run("afforest", mixed_graph, sampling="stratified")

    def test_random_mode_accounting(self):
        g = uniform_random_graph(300, edge_factor=6, seed=2)
        r = engine.run("afforest", g, sampling="random", seed=3)
        # final + skipped covers every slot (sampled slots recounted).
        assert r.edges_final + r.edges_skipped == g.num_directed_edges


class TestProfiling:
    def test_profile_disabled_by_default(self, mixed_graph):
        r = engine.run("afforest", mixed_graph)
        assert r.phase_seconds == {}

    def test_profile_records_all_phases(self):
        g = uniform_random_graph(500, edge_factor=6, seed=0)
        r = engine.run("afforest", g, profile=True)
        assert {"L0", "C0", "L1", "C1", "F", "H-gather", "H", "C*"} <= set(
            r.phase_seconds
        )
        assert all(v >= 0.0 for v in r.phase_seconds.values())

    def test_profile_noskip_has_no_find_phase(self):
        g = uniform_random_graph(200, edge_factor=4, seed=1)
        r = engine.run("afforest", g, skip_largest=False, profile=True)
        assert "F" not in r.phase_seconds

    def test_profile_does_not_change_result(self):
        g = uniform_random_graph(300, edge_factor=4, seed=2)
        a = engine.run("afforest", g, profile=True)
        b = engine.run("afforest", g, profile=False)
        assert np.array_equal(a.labels, b.labels)


class TestDynamicScheduleIntegration:
    def test_afforest_simulated_on_dynamic_schedule(self):
        g = uniform_random_graph(200, edge_factor=4, seed=6)
        m = SimulatedMachine(4, schedule="dynamic", chunk_size=8)
        r = _afforest_simulated(g, m)
        assert equivalent_labelings(r.labels, sequential_components(g))

    def test_sv_simulated_on_dynamic_schedule(self):
        g = uniform_random_graph(150, edge_factor=4, seed=7)
        m = SimulatedMachine(3, schedule="dynamic", chunk_size=4)
        r = engine.run("sv", g, backend=SimulatedBackend(m))
        assert equivalent_labelings(r.labels, sequential_components(g))
