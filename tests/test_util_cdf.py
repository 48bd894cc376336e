"""Tests for repro.util.cdf."""

import pytest

from repro.util.cdf import EmpiricalCDF, summarize


class TestEmpiricalCDF:
    def test_basic_evaluation(self):
        cdf = EmpiricalCDF([1, 2, 2, 4])
        assert cdf(0) == 0.0
        assert cdf(1) == 0.25
        assert cdf(2) == 0.75
        assert cdf(4) == 1.0
        assert cdf(100) == 1.0

    def test_quantiles(self):
        cdf = EmpiricalCDF([1, 2, 3, 4, 5])
        assert cdf.quantile(0.0) == 1
        assert cdf.quantile(1.0) == 5
        assert cdf.median() == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_quantile_out_of_range(self):
        cdf = EmpiricalCDF([1])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_series_monotone(self):
        cdf = EmpiricalCDF([5, 1, 3, 2, 8, 13])
        series = cdf.series(10)
        xs = [x for x, _ in series]
        ys = [y for _, y in series]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_series_needs_two_points(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([1]).series(1)


class TestSummarize:
    def test_five_numbers(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary["min"] == 1
        assert summary["median"] == 3
        assert summary["max"] == 5
        assert summary["p25"] == 2
        assert summary["p75"] == 4
