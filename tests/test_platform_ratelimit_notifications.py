"""Tests for rate limiting and notifications."""

import pytest

from repro.obs import Observability
from repro.platform.models import ActionType
from repro.platform.notifications import Notification, NotificationCenter
from repro.platform.ratelimit import SlidingWindowLimiter
from repro.util.rng import derive_rng


class TestSlidingWindowLimiter:
    def test_allows_up_to_limit(self):
        limiter = SlidingWindowLimiter(limit=3, window_ticks=10)
        assert all(limiter.allow("k", now=0) for _ in range(3))
        assert not limiter.allow("k", now=0)

    def test_window_slides(self):
        limiter = SlidingWindowLimiter(limit=1, window_ticks=5)
        assert limiter.allow("k", now=0)
        assert not limiter.allow("k", now=4)
        assert limiter.allow("k", now=6)

    def test_keys_independent(self):
        limiter = SlidingWindowLimiter(limit=1, window_ticks=5)
        assert limiter.allow("a", now=0)
        assert limiter.allow("b", now=0)

    def test_denied_attempts_free(self):
        limiter = SlidingWindowLimiter(limit=1, window_ticks=5)
        limiter.allow("k", now=0)
        for _ in range(10):
            limiter.allow("k", now=1)  # denied, not recorded
        assert limiter.allow("k", now=6)

    def test_remaining(self):
        limiter = SlidingWindowLimiter(limit=2, window_ticks=5)
        assert limiter.remaining("k", 0) == 2
        limiter.allow("k", 0)
        assert limiter.remaining("k", 0) == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SlidingWindowLimiter(0, 1)
        with pytest.raises(ValueError):
            SlidingWindowLimiter(1, 0)


class TestAllowBatch:
    """``allow_batch(key, now, count)`` keeps the books of ``count``
    scalar ``allow`` calls: granted count, later ``remaining()`` and
    both decision counters."""

    @staticmethod
    def _limiter():
        obs = Observability(enabled=True)
        limiter = SlidingWindowLimiter(limit=5, window_ticks=4, obs=obs, name="t")
        return limiter, obs

    @staticmethod
    def _decisions(obs):
        return tuple(
            obs.counter("platform.ratelimit.decisions", limiter="t", outcome=outcome).value
            for outcome in ("allowed", "rejected")
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_allow_calls(self, seed):
        rng = derive_rng(seed, "allow-batch")
        batched, batched_obs = self._limiter()
        scalar, scalar_obs = self._limiter()
        tick = 0
        for _ in range(300):
            key = "abc"[int(rng.integers(0, 3))]
            count = int(rng.integers(0, 9))
            granted = batched.allow_batch(key, tick, count)
            decisions = [scalar.allow(key, tick) for _ in range(count)]
            assert decisions == [True] * granted + [False] * (count - granted)
            assert self._decisions(batched_obs) == self._decisions(scalar_obs)
            # time moves on to the probe tick, so the books are read
            # across window slides and no call goes back in time
            tick += int(rng.integers(0, 6))
            for other in "abc":
                assert batched.remaining(other, tick) == scalar.remaining(other, tick)
        allowed, rejected = self._decisions(batched_obs)
        assert allowed and rejected

    def test_negative_count_rejected(self):
        limiter, obs = self._limiter()
        with pytest.raises(ValueError):
            limiter.allow_batch("k", 0, -1)
        assert self._decisions(obs) == (0, 0)


class TestNotificationCenter:
    def _notification(self, recipient=1, actor=2):
        return Notification(recipient=recipient, actor=actor, action_type=ActionType.LIKE, tick=0)

    def test_push_and_drain(self):
        center = NotificationCenter()
        center.push(self._notification())
        items = center.drain(1)
        assert len(items) == 1
        assert center.drain(1) == []

    def test_pending_peeks_without_consuming(self):
        center = NotificationCenter()
        center.push(self._notification())
        assert len(center.pending(1)) == 1
        assert len(center.pending(1)) == 1

    def test_recipients_with_pending(self):
        center = NotificationCenter()
        center.push(self._notification(recipient=1))
        center.push(self._notification(recipient=5))
        assert set(center.recipients_with_pending()) == {1, 5}
        center.drain(1)
        assert set(center.recipients_with_pending()) == {5}

    def test_clear_account(self):
        center = NotificationCenter()
        center.push(self._notification(recipient=1))
        center.clear_account(1)
        assert center.pending(1) == []

    def test_delivered_total(self):
        center = NotificationCenter()
        for _ in range(3):
            center.push(self._notification())
        assert center.delivered_total == 3
