"""Tests for the shared array helpers."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.arrays import sorted_unique


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(st.sampled_from([np.int64, np.int32, np.int8]),
                  st.integers(0, 60),
                  elements=st.integers(-5, 100)))
@example(np.zeros(0, dtype=np.int64))
@example(np.array([7], dtype=np.int64))
@example(np.full(9, -3, dtype=np.int64))
def test_sorted_unique_matches_np_unique(values):
    expected, expected_counts = np.unique(values, return_counts=True)
    distinct = sorted_unique(values)
    assert distinct.dtype == expected.dtype
    assert np.array_equal(distinct, expected)
    distinct, counts = sorted_unique(values, return_counts=True)
    assert distinct.dtype == expected.dtype
    assert np.array_equal(distinct, expected)
    assert counts.dtype == expected_counts.dtype
    assert np.array_equal(counts, expected_counts)
