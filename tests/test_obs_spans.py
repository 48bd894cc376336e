"""Tests for repro.obs span tracing and the Observability facade."""

from __future__ import annotations

import io

from repro.obs import NULL_OBS, ConsoleReporter, Observability, SpanListener, Tracer
from repro.obs.metrics import NullCounter, NullGauge, NullHistogram


class FakeClock:
    def __init__(self) -> None:
        self.now = 0


class TestTracer:
    def test_nesting_parent_ids_and_depths(self) -> None:
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == 1
            assert outer.depth == 0
        with tracer.span("after") as after:
            assert after.parent_id is None
            assert after.depth == 0

    def test_ticks_come_from_the_bound_source(self) -> None:
        clock = FakeClock()
        tracer = Tracer()
        tracer.bind_tick_source(lambda: clock.now)
        with tracer.span("phase") as span:
            clock.now = 24
        assert (span.start_tick, span.end_tick, span.tick_span) == (0, 24, 24)

    def test_completion_order_and_sequential_ids(self) -> None:
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        finished = tracer.finished
        assert [span.name for span in finished] == ["b", "a", "c"]
        assert sorted(span.span_id for span in finished) == [0, 1, 2]

    def test_attrs_recorded(self) -> None:
        tracer = Tracer()
        with tracer.span("sweep", start_tick=10, end_tick=20) as span:
            pass
        assert span.attrs == {"start_tick": 10, "end_tick": 20}

    def test_span_closed_even_on_exception(self) -> None:
        tracer = Tracer()
        try:
            with tracer.span("phase"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert len(tracer.finished) == 1
        assert tracer.finished[0].end_tick is not None

    def test_wall_source_attaches_wall_s(self) -> None:
        ticks = iter(range(100))
        tracer = Tracer(wall_source=lambda: float(next(ticks)))
        with tracer.span("phase"):
            pass
        assert tracer.finished[0].wall_s == 1.0

    def test_no_wall_source_means_no_wall_s(self) -> None:
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        assert tracer.finished[0].wall_s is None
        assert "wall_s" not in tracer.finished[0].to_line()

    def test_listeners_see_starts_and_ends(self) -> None:
        events: list[tuple[str, str]] = []

        class Recorder(SpanListener):
            def span_started(self, span) -> None:
                events.append(("start", span.name))

            def span_ended(self, span) -> None:
                events.append(("end", span.name))

        tracer = Tracer()
        tracer.add_listener(Recorder())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert events == [("start", "a"), ("start", "b"), ("end", "b"), ("end", "a")]


class TestFacade:
    def test_enabled_handle_registers_real_instruments(self) -> None:
        obs = Observability(enabled=True)
        obs.counter("hits").inc()
        assert obs.metrics.get_counter_value("hits") == 1
        with obs.span("phase") as span:
            assert span is not None
        assert len(obs.tracer.finished) == 1

    def test_disabled_handle_is_inert(self) -> None:
        obs = Observability(enabled=False)
        counter = obs.counter("hits")
        gauge = obs.gauge("level")
        histogram = obs.histogram("sizes")
        assert isinstance(counter, NullCounter)
        assert isinstance(gauge, NullGauge)
        assert isinstance(histogram, NullHistogram)
        counter.inc()
        with obs.span("phase") as span:
            assert span is None
        assert obs.metrics.snapshot()["metrics"] == []
        assert obs.tracer.finished == ()

    def test_null_obs_is_shared_and_disabled(self) -> None:
        assert NULL_OBS.enabled is False
        # the same shared no-op instrument comes back for any name
        assert NULL_OBS.counter("a") is NULL_OBS.counter("b")


class TestConsoleReporter:
    def test_reports_starts_and_top_level_completions(self) -> None:
        stream = io.StringIO()
        obs = Observability(enabled=True)
        obs.add_listener(ConsoleReporter(stream))
        with obs.span("honeypot-phase", days=3):
            with obs.span("register-honeypots"):
                pass
        text = stream.getvalue()
        assert "honeypot-phase" in text
        assert "register-honeypots" in text
        assert "done" in text
        # nested span completions are not reported, only starts
        assert text.count("done") == 1
