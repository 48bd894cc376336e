"""Property-based tests (hypothesis) on core data structures and invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.aas.ledger import Payment, PaymentLedger
from repro.interventions.bins import BIN_COUNT, account_bin
from repro.platform.clock import SimClock
from repro.platform.errors import InvalidActionError
from repro.platform.graph import FollowerGraph
from repro.platform.ratelimit import SlidingWindowLimiter
from repro.util.cdf import EmpiricalCDF
from repro.util.stats import percentile

common_settings = settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])


class TestFollowerGraphProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.integers(1, 20), st.booleans()),
            max_size=120,
        )
    )
    @common_settings
    def test_degree_conservation_under_any_operation_sequence(self, operations):
        """Sum of out-degrees == sum of in-degrees == edge count, always."""
        graph = FollowerGraph()
        accounts = set()
        for src, dst, is_follow in operations:
            accounts.update((src, dst))
            try:
                if is_follow:
                    graph.follow(src, dst)
                else:
                    graph.unfollow(src, dst)
            except InvalidActionError:
                pass
        out_sum = sum(graph.out_degree(a) for a in accounts)
        in_sum = sum(graph.in_degree(a) for a in accounts)
        assert out_sum == in_sum == graph.edge_count

    @given(
        st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=60),
        st.integers(1, 12),
    )
    @common_settings
    def test_drop_account_removes_every_incident_edge(self, edges, victim):
        graph = FollowerGraph()
        for src, dst in edges:
            try:
                graph.follow(src, dst)
            except InvalidActionError:
                pass
        graph.drop_account(victim)
        assert graph.out_degree(victim) == 0
        assert graph.in_degree(victim) == 0
        for src, dst in edges:
            assert not graph.is_following(src, victim)
            assert not graph.is_following(victim, dst)


class TestLedgerProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 10), st.integers(1, 10_000), st.integers(-500, 500)),
            max_size=60,
        )
    )
    @common_settings
    def test_window_totals_partition(self, payments):
        """Totals over disjoint windows sum to the overall total."""
        ledger = PaymentLedger()
        for customer, cents, tick in payments:
            ledger.record(Payment(customer, cents, tick, "x"))
        total = ledger.total_cents(start_tick=-(10**9))
        split_point = 0
        left = ledger.total_cents(start_tick=-(10**9), end_tick=split_point)
        right = ledger.total_cents(start_tick=split_point)
        assert left + right == total

    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 1000), st.integers(-100, 100)),
            min_size=1,
            max_size=40,
        ),
        st.integers(-50, 50),
    )
    @common_settings
    def test_new_plus_preexisting_equals_window_total(self, payments, window_start):
        ledger = PaymentLedger()
        for customer, cents, tick in payments:
            ledger.record(Payment(customer, cents, tick, "x"))
        window_ticks = 80
        split = ledger.new_vs_preexisting_split(window_start, window_ticks)
        assert split["new"] + split["preexisting"] == ledger.total_cents(
            window_start, window_start + window_ticks
        )


class TestRateLimiterProperties:
    @given(
        st.integers(1, 10),
        st.integers(1, 24),
        st.lists(st.integers(0, 100), min_size=1, max_size=120),
    )
    @common_settings
    def test_never_exceeds_limit_in_any_window(self, limit, window, ticks):
        limiter = SlidingWindowLimiter(limit, window)
        accepted = []
        for tick in sorted(ticks):
            if limiter.allow("k", tick):
                accepted.append(tick)
        # brute-force check every window
        for start in range(0, 101):
            in_window = [t for t in accepted if start < t + window and t <= start]
            count = sum(1 for t in accepted if start - window < t <= start)
            assert count <= limit


class TestCDFProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @common_settings
    def test_cdf_is_monotone_and_bounded(self, sample):
        cdf = EmpiricalCDF(sample)
        xs = sorted(set(sample))
        values = [cdf(x) for x in xs]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert cdf(max(sample)) == 1.0


class TestStatsProperties:
    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=100))
    @common_settings
    def test_percentile_within_range(self, values):
        p = percentile(values, 50)
        assert min(values) <= p <= max(values)


class TestBinProperties:
    @given(st.integers(0, 10**12))
    @common_settings
    def test_bin_stable_and_in_range(self, account):
        bin_a = account_bin(account)
        bin_b = account_bin(account)
        assert bin_a == bin_b
        assert 0 <= bin_a < BIN_COUNT


class TestClockProperties:
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=30))
    @common_settings
    def test_callbacks_fire_exactly_once_in_order(self, delays):
        clock = SimClock()
        fired = []
        for i, delay in enumerate(delays):
            clock.call_after(delay, lambda t, i=i: fired.append((t, i)))
        clock.advance(200)
        assert len(fired) == len(delays)
        assert [t for t, _ in fired] == sorted(t for t, _ in fired)
        assert clock.pending_callbacks() == 0
