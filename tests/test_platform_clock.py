"""Tests for repro.platform.clock."""

import pytest

from repro.platform.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_advance(self):
        clock = SimClock()
        clock.advance(5)
        assert clock.now == 5

    def test_day_week_properties(self):
        clock = SimClock()
        clock.advance(24 * 8)
        assert clock.day == 8

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1)

    def test_advance_must_be_positive(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(0)

    def test_callbacks_fire_in_order(self):
        clock = SimClock()
        fired = []
        clock.call_at(3, lambda t: fired.append(("a", t)))
        clock.call_at(2, lambda t: fired.append(("b", t)))
        clock.advance(5)
        assert fired == [("b", 2), ("a", 3)]

    def test_callback_sees_scheduled_tick_as_now(self):
        clock = SimClock()
        seen = []
        clock.call_at(4, lambda t: seen.append(clock.now))
        clock.advance(10)
        assert seen == [4]
        assert clock.now == 10

    def test_same_tick_callbacks_fifo(self):
        clock = SimClock()
        fired = []
        clock.call_at(2, lambda t: fired.append("first"))
        clock.call_at(2, lambda t: fired.append("second"))
        clock.advance(3)
        assert fired == ["first", "second"]

    def test_call_after(self):
        clock = SimClock()
        clock.advance(10)
        fired = []
        clock.call_after(5, lambda t: fired.append(t))
        clock.advance(4)
        assert fired == []
        clock.advance(1)
        assert fired == [15]

    def test_scheduling_in_past_rejected(self):
        clock = SimClock()
        clock.advance(10)
        with pytest.raises(ValueError):
            clock.call_at(10, lambda t: None)
        with pytest.raises(ValueError):
            clock.call_after(0, lambda t: None)

    def test_callback_can_schedule_followup(self):
        clock = SimClock()
        fired = []

        def chain(t):
            fired.append(t)
            if t < 6:
                clock.call_at(t + 2, chain)

        clock.call_at(2, chain)
        clock.advance(10)
        assert fired == [2, 4, 6]

    def test_pending_callbacks_count(self):
        clock = SimClock()
        clock.call_at(5, lambda t: None)
        assert clock.pending_callbacks() == 1
        clock.advance(6)
        assert clock.pending_callbacks() == 0
