"""Tests for repro.util.stats."""

import pytest

from repro.util.stats import median, percentile


class TestPercentile:
    def test_median_of_odd_sample(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_interpolates(self):
        assert percentile([0, 10], 50) == 5

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_median_helper(self):
        assert median([4, 1, 3, 2]) == 2.5
