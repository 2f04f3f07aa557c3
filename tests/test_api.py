"""Tests for the top-level public API."""

import numpy as np
import pytest

import repro
from repro.analysis import equivalent_labelings
from repro.errors import ConfigurationError

ALGORITHMS = [
    "afforest",
    "afforest-noskip",
    "sv",
    "lp",
    "lp-datadriven",
    "bfs",
    "dobfs",
    "sequential",
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_all_algorithms_on_mixed(algorithm, mixed_graph):
    ref = repro.sequential_components(mixed_graph)
    labels = repro.connected_components(mixed_graph, algorithm)
    assert equivalent_labelings(labels, ref)


def test_default_is_afforest(mixed_graph):
    a = repro.connected_components(mixed_graph)
    b = repro.connected_components(mixed_graph, "afforest")
    assert np.array_equal(a, b)


def test_unknown_algorithm():
    g = repro.from_edge_list([(0, 1)])
    with pytest.raises(ConfigurationError, match="unknown algorithm"):
        repro.connected_components(g, "magic")


def test_kwargs_forwarded(mixed_graph):
    labels = repro.connected_components(
        mixed_graph, "afforest", neighbor_rounds=1, sample_size=8
    )
    ref = repro.sequential_components(mixed_graph)
    assert equivalent_labelings(labels, ref)


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_quickstart_docstring_flow():
    g = repro.generators.kronecker_graph(scale=8)
    labels = repro.connected_components(g)
    result = repro.engine.run("afforest", g, neighbor_rounds=2)
    assert labels.shape[0] == g.num_vertices
    assert result.num_components >= 1
