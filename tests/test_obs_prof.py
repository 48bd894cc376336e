"""The counter classifier behind perfbench's ``obs.cost_units.*`` metrics."""

from __future__ import annotations

from repro.obs.prof import classify_counter


class TestClassifyCounter:
    def test_prefix_patterns_match_whole_families(self) -> None:
        assert classify_counter("util.rng.derivations") == "rng"
        assert classify_counter("platform.actionlog.window_query") == "log"
        assert classify_counter("platform.graph.edge_ops") == "graph"

    def test_batch_rows_stay_out_of_the_log_kind(self) -> None:
        """``batch_rows`` sits under the ``platform.actionlog.`` prefix;
        were it classified "log", ``obs.cost_units.log`` would move with
        how many rows a batch scope deferred."""
        assert classify_counter("platform.actionlog.batch_rows") == "log_batch"
        assert classify_counter("platform.actionlog.appends") == "log"

    def test_exact_patterns_do_not_spill_over(self) -> None:
        assert classify_counter("detection.classifier.comparisons") == "classifier"
        assert classify_counter("detection.classifier.memo") == "classifier"
        # siblings of the exact patterns are not cost units
        assert classify_counter("detection.classifier.sweeps") is None

    def test_non_cost_counters_are_ignored(self) -> None:
        assert classify_counter("aas.actions") is None
        assert classify_counter("core.scheduler.parks") is None

    def test_scheduler_unit_is_agent_runs_only(self) -> None:
        assert classify_counter("core.scheduler.agent_runs") == "sched"
        assert classify_counter("core.scheduler.idle_ticks") is None
