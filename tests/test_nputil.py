"""Unit tests for shared vectorised utilities."""

import itertools

import numpy as np
import pytest

from repro.nputil import expand_slices, run_starts, segment_ranges, sorted_unique


class TestSegmentRanges:
    def test_basic(self):
        assert segment_ranges(np.array([2, 0, 3])).tolist() == [0, 1, 0, 1, 2]

    def test_single_segment(self):
        assert segment_ranges(np.array([4])).tolist() == [0, 1, 2, 3]

    def test_all_zero(self):
        assert segment_ranges(np.array([0, 0])).tolist() == []

    def test_empty(self):
        assert segment_ranges(np.array([], dtype=np.int64)).tolist() == []

    def test_leading_and_trailing_zeros(self):
        assert segment_ranges(np.array([0, 2, 0, 1, 0])).tolist() == [0, 1, 0]

    def test_ones(self):
        assert segment_ranges(np.ones(5, dtype=np.int64)).tolist() == [0] * 5

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = rng.integers(0, 6, size=rng.integers(0, 12))
            expected = [i for c in counts for i in range(c)]
            assert segment_ranges(counts).tolist() == expected


class TestExpandSlices:
    def test_basic(self):
        owner, offset = expand_slices(
            np.array([10, 20, 30]), np.array([2, 0, 3])
        )
        assert owner.tolist() == [0, 0, 2, 2, 2]
        assert offset.tolist() == [10, 11, 30, 31, 32]

    def test_negative_counts_clamped(self):
        owner, offset = expand_slices(np.array([5, 7]), np.array([-3, 2]))
        assert owner.tolist() == [1, 1]
        assert offset.tolist() == [7, 8]

    def test_empty(self):
        owner, offset = expand_slices(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert owner.size == 0
        assert offset.size == 0


RETURN_FLAGS = ("return_index", "return_inverse", "return_counts")
FLAG_COMBOS = [
    dict(zip(RETURN_FLAGS, combo))
    for combo in itertools.product([False, True], repeat=3)
]
_rng = np.random.default_rng(3)
INPUTS = {
    "random": _rng.integers(-40, 40, size=500),
    "wide_random": _rng.integers(0, 2**62, size=300),
    "empty": np.array([], dtype=np.int64),
    "single": np.array([17]),
    "all_equal": np.full(9, 4),
    "int32": _rng.integers(0, 25, size=200).astype(np.int32),
    "sorted_runs": np.repeat(np.arange(6), [3, 1, 4, 1, 5, 9]),
}


class TestSortedUnique:
    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize(
        "flags", FLAG_COMBOS,
        ids=lambda f: "-".join(k[7:] for k in RETURN_FLAGS if f[k]) or "values",
    )
    def test_matches_np_unique(self, name, flags):
        x = INPUTS[name]
        got = sorted_unique(x, **flags)
        want = np.unique(x, **flags)
        if not any(flags.values()):
            got, want = (got,), (want,)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_values_keep_input_dtype(self, name):
        x = INPUTS[name]
        assert sorted_unique(x).dtype == x.dtype
        assert sorted_unique(x, return_inverse=True)[0].dtype == x.dtype

    def test_index_is_first_occurrence(self):
        x = np.array([5, 3, 5, 1, 3, 3, 1, 5])
        values, index = sorted_unique(x, return_index=True)
        assert values.tolist() == [1, 3, 5]
        assert index.tolist() == [3, 1, 0]

    def test_inverse_rebuilds_input(self):
        x = INPUTS["random"]
        values, inverse = sorted_unique(x, return_inverse=True)
        assert np.array_equal(values[inverse], x)

    def test_input_left_untouched(self):
        x = np.array([3, 1, 2, 1])
        sorted_unique(x)
        sorted_unique(x, return_index=True, return_counts=True)
        assert x.tolist() == [3, 1, 2, 1]


class TestRunStarts:
    def test_marks_first_of_each_run(self):
        ordered = np.array([1, 1, 2, 4, 4, 4, 7])
        assert run_starts(ordered).tolist() == [
            True, False, True, True, False, False, True,
        ]

    def test_empty(self):
        assert run_starts(np.array([], dtype=np.int64)).tolist() == []
