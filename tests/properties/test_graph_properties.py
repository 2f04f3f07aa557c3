"""Property-based tests of the graph substrate itself."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edge_list
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList
from repro.graph.validate import validate_graph
from repro.nputil import segment_ranges


@st.composite
def edge_data(draw, max_n=40, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return n, edges


class TestBuilderProperties:
    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_built_graph_always_validates(self, case):
        n, edges = case
        g = from_edge_list(edges, num_vertices=n)
        validate_graph(g, require_sorted=True)

    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_degree_sum_is_twice_edges(self, case):
        n, edges = case
        g = from_edge_list(edges, num_vertices=n)
        assert int(np.asarray(g.degree()).sum()) == 2 * g.num_edges

    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_edge_order_does_not_matter(self, case):
        n, edges = case
        g1 = from_edge_list(edges, num_vertices=n)
        g2 = from_edge_list(list(reversed(edges)), num_vertices=n)
        assert g1 == g2

    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_orientation_does_not_matter(self, case):
        n, edges = case
        g1 = from_edge_list(edges, num_vertices=n)
        g2 = from_edge_list([(v, u) for u, v in edges], num_vertices=n)
        assert g1 == g2

    @given(edge_data())
    @settings(max_examples=60, deadline=None)
    def test_rebuild_from_edge_array_roundtrips(self, case):
        n, edges = case
        g = from_edge_list(edges, num_vertices=n)
        src, dst = g.undirected_edge_array()
        rebuilt = from_edge_list(
            list(zip(src.tolist(), dst.tolist())), num_vertices=n
        )
        assert rebuilt == g


class TestEdgeListProperties:
    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_symmetrize_then_canonical_halves(self, case):
        # Symmetrizing stores both orientations of every loop-free record.
        n, edges = case
        el = EdgeList(
            n,
            np.asarray([e[0] for e in edges], dtype=np.int64),
            np.asarray([e[1] for e in edges], dtype=np.int64),
        )
        loop_free = sum(1 for u, v in edges if u != v)
        assert build_csr(el, dedup=False).num_directed_edges == 2 * loop_free

    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_dedup_idempotent(self, case):
        n, edges = case
        el = EdgeList(
            n,
            np.asarray([e[0] for e in edges], dtype=np.int64),
            np.asarray([e[1] for e in edges], dtype=np.int64),
        )
        once = el.deduplicated()
        twice = once.deduplicated()
        assert once.as_pairs() == twice.as_pairs()


class TestSegmentRangesProperties:
    @given(st.lists(st.integers(0, 10), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_python_reference(self, counts):
        arr = np.asarray(counts, dtype=np.int64)
        expected = [i for c in counts for i in range(c)]
        assert segment_ranges(arr).tolist() == expected
