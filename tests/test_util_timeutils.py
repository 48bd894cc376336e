"""Tests for repro.util.timeutils."""

import pytest

from repro.util.timeutils import (
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    days,
    hours,
    tick_to_day,
    weeks,
)


class TestUnits:
    def test_constants(self):
        assert HOURS_PER_DAY == 24
        assert HOURS_PER_WEEK == 168

    def test_conversions(self):
        assert hours(5) == 5
        assert days(2) == 48
        assert weeks(1) == 168

    def test_fractional_days(self):
        assert days(0.5) == 12

    def test_tick_to_day(self):
        assert tick_to_day(0) == 0
        assert tick_to_day(23) == 0
        assert tick_to_day(24) == 1

    def test_negative_tick_raises(self):
        with pytest.raises(ValueError):
            tick_to_day(-1)
