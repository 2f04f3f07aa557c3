"""Unit tests for CSR construction from edge data."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError
from repro.graph.builder import build_csr, from_edge_array, from_edge_list
from repro.graph.coo import EdgeList
from repro.graph.validate import (
    check_no_duplicates,
    check_no_self_loops,
    check_sorted_neighbors,
    check_symmetric,
)


def test_symmetrize_default():
    g = from_edge_list([(0, 1), (1, 2)])
    check_symmetric(g)
    assert g.has_edge(1, 0)
    assert g.has_edge(2, 1)


def test_dedup_default():
    g = from_edge_list([(0, 1), (0, 1), (1, 0)])
    assert g.num_edges == 1
    check_no_duplicates(g)


def test_self_loops_dropped_by_default():
    g = from_edge_list([(0, 0), (0, 1)])
    check_no_self_loops(g)
    assert g.num_edges == 1


def test_self_loops_kept_when_requested():
    el = EdgeList(2, np.array([0]), np.array([0]))
    g = build_csr(el, drop_self_loops=False)
    assert g.num_self_loops == 1


def test_sorted_neighbors_default():
    g = from_edge_list([(0, 3), (0, 1), (0, 2)], num_vertices=4)
    check_sorted_neighbors(g)
    assert g.neighbors(0).tolist() == [1, 2, 3]


def test_unsorted_preserves_insertion_order():
    el = EdgeList(4, np.array([0, 0, 0]), np.array([3, 1, 2]))
    g = build_csr(el, symmetrize=False, dedup=False, sort_neighbors=False)
    assert g.neighbors(0).tolist() == [3, 1, 2]


def test_unsorted_symmetrized_row_order():
    """With symmetrize + stable placement, each row keeps input order:
    forward records first, mirrored records after."""
    el = EdgeList(3, np.array([0, 1]), np.array([2, 0]))
    g = build_csr(el, sort_neighbors=False)
    assert g.neighbors(0).tolist() == [2, 1]  # fwd (0,2) then mirror of (1,0)


def test_no_symmetrize():
    el = EdgeList(3, np.array([0]), np.array([1]))
    g = build_csr(el, symmetrize=False)
    assert g.degree(0) == 1
    assert g.degree(1) == 0


def test_from_edge_array_infers_count():
    g = from_edge_array(np.array([0, 5]), np.array([1, 2]))
    assert g.num_vertices == 6


def test_from_edge_array_empty():
    g = from_edge_array(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert g.num_vertices == 0


def test_from_edge_array_explicit_count():
    g = from_edge_array(np.array([0]), np.array([1]), num_vertices=10)
    assert g.num_vertices == 10


def test_from_edge_list_rejects_bad_shape():
    with pytest.raises(GraphFormatError):
        from_edge_list([(0, 1, 2)])  # type: ignore[list-item]


def test_from_edge_list_empty():
    g = from_edge_list([])
    assert g.num_vertices == 0
    assert g.num_edges == 0


def test_degree_sum_equals_directed_edges():
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert int(np.asarray(g.degree()).sum()) == g.num_directed_edges


def test_multigraph_input_normalises():
    pairs = [(0, 1)] * 5 + [(1, 0)] * 3 + [(1, 1)] * 2
    g = from_edge_list(pairs)
    assert g.num_edges == 1
    assert g.num_self_loops == 0


# --------------------------------------------------------------------- #
# Bit-identity with the two-sort reference builder
# --------------------------------------------------------------------- #


def reference_build_csr(
    edges, *, symmetrize=True, dedup=True, drop_self_loops=True,
    sort_neighbors=True,
):
    """The earlier two-sort builder, kept verbatim as the reference:
    ``np.unique`` first-occurrence dedup, then ``lexsort`` (or a stable
    row argsort) of the surviving records."""
    src, dst = edges.src, edges.dst
    n = edges.num_vertices
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if symmetrize:
        loops = src == dst
        src, dst = (
            np.concatenate([src, dst[~loops]]),
            np.concatenate([dst, src[~loops]]),
        )
    if dedup and src.shape[0]:
        key = src * np.int64(n or 1) + dst
        _, first = np.unique(key, return_index=True)
        first.sort()
        src, dst = src[first], dst[first]
    counts = np.bincount(src, minlength=n).astype(VERTEX_DTYPE)
    indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    if sort_neighbors:
        order = np.lexsort((dst, src))
    else:
        order = np.argsort(src, kind="stable")
    return indptr, dst[order]


FLAG_NAMES = ("symmetrize", "dedup", "drop_self_loops", "sort_neighbors")
ALL_FLAGS = [
    dict(zip(FLAG_NAMES, combo))
    for combo in itertools.product([True, False], repeat=4)
]


def assert_bit_identical(edges, flags):
    g = build_csr(edges, **flags)
    indptr, indices = reference_build_csr(edges, **flags)
    for got, want in ((g.indptr, indptr), (g.indices, indices)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), flags


@st.composite
def multigraphs(draw, max_n=30, max_edges=120):
    """Edge lists with repeats, mirrors and self loops left in."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    src = np.array([u for u, _ in pairs], dtype=VERTEX_DTYPE)
    dst = np.array([v for _, v in pairs], dtype=VERTEX_DTYPE)
    return EdgeList(n, src, dst)


@pytest.mark.parametrize(
    "flags", ALL_FLAGS,
    ids=lambda f: "-".join(k for k in FLAG_NAMES if f[k]) or "none",
)
class TestMatchesReferenceBuilder:
    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_multigraphs(self, flags, edges):
        assert_bit_identical(edges, flags)

    def test_empty_graph(self, flags):
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        assert_bit_identical(EdgeList(5, empty, empty), flags)

    def test_zero_vertices(self, flags):
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        assert_bit_identical(EdgeList(0, empty, empty), flags)

    def test_only_self_loops(self, flags):
        loops = np.array([3, 1, 3, 0, 1], dtype=VERTEX_DTYPE)
        assert_bit_identical(EdgeList(4, loops, loops), flags)

    def test_isolated_vertices(self, flags):
        src = np.array([7, 2, 7, 9], dtype=VERTEX_DTYPE)
        dst = np.array([2, 7, 9, 7], dtype=VERTEX_DTYPE)
        assert_bit_identical(EdgeList(12, src, dst), flags)

    def test_skewed_random_multigraph(self, flags):
        rng = np.random.default_rng(5)
        src = rng.zipf(1.6, size=4000) % 300
        dst = rng.integers(0, 300, size=4000)
        assert_bit_identical(EdgeList(300, src, dst), flags)


def test_packed_key_overflow_rejected():
    """``src * n + dst`` must not wrap: 2^32 vertices need 2^64 keys."""
    n = 2**32
    src = np.array([0, n - 1], dtype=VERTEX_DTYPE)
    dst = np.array([n - 1, 1], dtype=VERTEX_DTYPE)
    edges = EdgeList(n, src, dst)
    with pytest.raises(GraphFormatError, match="packed edge key"):
        edges.deduplicated()
    with pytest.raises(GraphFormatError, match="packed edge key"):
        build_csr(edges)


def test_largest_packable_vertex_count_accepted():
    n = 3_037_000_499
    src = np.array([n - 1, n - 1], dtype=VERTEX_DTYPE)
    dst = np.array([n - 2, n - 2], dtype=VERTEX_DTYPE)
    kept = EdgeList(n, src, dst).deduplicated()
    assert kept.as_pairs() == [(n - 1, n - 2)]
    with pytest.raises(GraphFormatError, match="packed edge key"):
        EdgeList(n + 1, src, dst).deduplicated()
