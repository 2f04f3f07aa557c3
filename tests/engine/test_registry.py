"""Tests for the algorithm registry."""

import numpy as np
import pytest

from repro import engine
from repro.engine import registry
from repro.engine.result import CCResult
from repro.errors import ConfigurationError

EXPECTED_BUILTINS = [
    "afforest",
    "afforest-noskip",
    "auto",
    "bfs",
    "dobfs",
    "fastsv",
    "lp",
    "lp-datadriven",
    "sequential",
    "sv",
]


class TestAvailability:
    def test_all_builtins_registered(self):
        assert engine.available_algorithms() == EXPECTED_BUILTINS

    def test_names_sorted(self):
        names = engine.available_algorithms()
        assert names == sorted(names)

    def test_describe_pairs_with_descriptions(self):
        pairs = engine.describe_algorithms()
        names = [n for n, _ in pairs]
        # Registered algorithms first, then every composed plan.
        assert names[: len(EXPECTED_BUILTINS)] == EXPECTED_BUILTINS
        assert names[len(EXPECTED_BUILTINS):] == engine.available_plans()
        for _, description in pairs:
            assert description.strip()

    def test_describe_can_exclude_plans(self):
        pairs = engine.describe_algorithms(include_plans=False)
        assert [n for n, _ in pairs] == EXPECTED_BUILTINS


class TestMetadata:
    def test_afforest_supports_both_backends(self):
        spec = engine.get_algorithm("afforest")
        assert spec.supports_backend("vectorized")
        assert spec.supports_backend("simulated")

    def test_noskip_default_disables_skipping(self):
        spec = engine.get_algorithm("afforest-noskip")
        assert spec.defaults == {"skip_largest": False}

    def test_frontier_family_supports_every_backend(self):
        for name in ("lp", "lp-datadriven", "bfs", "dobfs"):
            spec = engine.get_algorithm(name)
            assert spec.backends == (
                "vectorized",
                "simulated",
                "process",
                "distributed",
            )

    def test_reference_algorithms_are_vectorized_only(self):
        spec = engine.get_algorithm("sequential")
        assert spec.backends == ("vectorized",)
        assert not spec.supports_backend("simulated")

    def test_pipelines_marked_instrumented(self):
        assert engine.get_algorithm("afforest").instrumented
        assert engine.get_algorithm("sv").instrumented
        assert engine.get_algorithm("lp").instrumented
        assert not engine.get_algorithm("sequential").instrumented


class TestLookup:
    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            engine.get_algorithm("magic")

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError, match="afforest"):
            engine.get_algorithm("magic")

    def test_unknown_name_mentions_plans(self):
        with pytest.raises(ConfigurationError, match="composed plans"):
            engine.get_algorithm("magic")

    def test_composed_plan_name_resolves(self):
        spec = engine.get_algorithm("kout+sv")
        assert spec.name == "kout+sv"
        assert spec.backends == (
            "vectorized",
            "simulated",
            "process",
            "distributed",
        )
        assert spec.instrumented

    def test_unknown_plan_phase_raises(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            engine.get_algorithm("magic+sv")


class TestCustomRegistration:
    def test_register_run_and_cleanup(self, mixed_graph):
        @engine.register("test-trivial", description="everything one component")
        def _run_trivial(graph, backend, **params):
            return CCResult(
                labels=np.zeros(graph.num_vertices, dtype=np.int64)
            )

        try:
            assert "test-trivial" in engine.available_algorithms()
            result = engine.run("test-trivial", mixed_graph)
            assert result.num_components == 1
            assert result.algorithm == "test-trivial"
        finally:
            registry._REGISTRY.pop("test-trivial", None)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            @engine.register("afforest", description="impostor")
            def _run_impostor(graph, backend, **params):
                raise AssertionError("never called")

    def test_overwrite_allows_replacement(self, mixed_graph):
        original = engine.get_algorithm("sequential")

        @engine.register(
            "sequential", description="replacement", overwrite=True
        )
        def _run_replacement(graph, backend, **params):
            return CCResult(labels=np.arange(graph.num_vertices))

        try:
            result = engine.run("sequential", mixed_graph)
            assert result.num_components == mixed_graph.num_vertices
        finally:
            registry._REGISTRY["sequential"] = original

    def test_defaults_merged_under_caller_params(self, mixed_graph):
        seen = {}

        @engine.register(
            "test-defaults",
            description="records merged params",
            defaults={"alpha": 1, "beta": 2},
        )
        def _run_defaults(graph, backend, *, alpha, beta):
            seen["alpha"], seen["beta"] = alpha, beta
            return CCResult(labels=np.zeros(graph.num_vertices, dtype=np.int64))

        try:
            result = engine.run("test-defaults", mixed_graph, beta=7)
            assert seen == {"alpha": 1, "beta": 7}
            assert result.params == {"alpha": 1, "beta": 7}
        finally:
            registry._REGISTRY.pop("test-defaults", None)
