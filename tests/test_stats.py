"""Tests for the methodology statistics (median, geomean, deviation)."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.utils.correlation import pearson
from repro.utils.stats import geometric_mean, median, relative_deviation


class TestMedian:
    def test_odd_count(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_even_count_averages(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_nine_reps_like_the_paper(self):
        runtimes = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.3, 9.7, 10.0]
        assert median(runtimes) == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1))
    def test_median_between_min_and_max(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)


class TestGeometricMean:
    def test_identity_on_constant(self):
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_speedup_symmetry(self):
        # a speedup and its inverse cancel in geomean — the reason the
        # paper uses geomeans for speedup ratios
        assert geometric_mean([0.5, 2.0]) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([-1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                    max_size=20))
    def test_between_min_and_max(self, values):
        g = geometric_mean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9


class TestRelativeDeviation:
    def test_identical_runs_have_zero_deviation(self):
        assert relative_deviation([5.0, 5.0, 5.0]) == 0.0

    def test_small_deviation(self):
        # mirrors the paper's 0.6 % median relative deviation claim
        values = [100.0, 100.6, 99.4, 100.0, 100.3]
        assert relative_deviation(values) < 0.01

    def test_zero_median_rejected(self):
        with pytest.raises(ValueError):
            relative_deviation([0.0, 0.0])


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_independent_of_scale_and_shift(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [3.0, 1.0, 4.0, 1.0]
        r1 = pearson(xs, ys)
        r2 = pearson([10 * x + 5 for x in xs], ys)
        assert r1 == pytest.approx(r2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pearson([1], [1])

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])

    @given(st.lists(st.tuples(st.floats(min_value=-100, max_value=100),
                              st.floats(min_value=-100, max_value=100)),
                    min_size=3, max_size=30))
    # variances whose product underflows to zero
    @example([(0.0, 0.0), (0.0, 1.555784426741879e-75),
              (5.997993288577755e-129, 0.0)])
    def test_bounded(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        try:
            r = pearson(xs, ys)
        except ValueError:
            return  # zero variance draw
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
