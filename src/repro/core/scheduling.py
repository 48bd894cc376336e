"""The study's per-tick agent loop.

:meth:`repro.core.study.Study.tick` runs every registered agent — the
clientele drivers, the collusion-honeypot driver, the services, organic
traffic — once per simulated hour, in registration order, each inside
one platform action-batch scope. Registration order is part of the
seeded result: agents share the platform, so reordering them changes
what each one observes. The golden-digest suite in
``tests/test_core_golden_digests.py`` pins the order.

No agent is ever skipped: the only one with RNG-free idle ticks, the
collusion-honeypot driver, would save 264 of 5,472 runs on perfbench
``study`` and nothing measurable (DESIGN.md §8).

``core.scheduler.agent_runs`` counts agent runs and doubles as the
scheduler's work unit: perfbench reports its delta over the timed
region as ``obs.cost_units.scheduler`` (classified by
:mod:`repro.obs.prof`).
"""

from __future__ import annotations

from typing import Callable, ContextManager, Optional

from repro.obs import NULL_OBS, Observability


class TimingWheel:
    """Every registered agent, run once per tick in registration order."""

    def __init__(
        self,
        run_scope: Callable[[], ContextManager],
        obs: Optional[Observability] = None,
    ):
        #: context-manager factory entered around each agent run — the
        #: study passes :meth:`InstagramPlatform.action_batch`, so the
        #: batch boundary is exactly one actor-tick (DESIGN.md §15). The
        #: scope must be transparent to the agent: actions inside it
        #: observe identical platform state, and deferred work is flushed
        #: on exit, before the next agent runs.
        self._run_scope = run_scope
        self._agents: dict[str, Callable[[], None]] = {}
        _obs = obs if obs is not None else NULL_OBS
        self._obs_agents = _obs.gauge("core.scheduler.agents")
        self._obs_runs = _obs.counter("core.scheduler.agent_runs")

    def add(self, name: str, run: Callable[[], None]) -> None:
        """Register an agent; it runs after every agent added before it."""
        if name in self._agents:
            raise ValueError(f"agent {name!r} already registered")
        self._agents[name] = run
        self._obs_agents.set(len(self._agents))

    def run_due(self, now: int) -> int:
        """Run every agent for tick ``now``; returns how many ran."""
        scope = self._run_scope
        for run in self._agents.values():
            with scope():
                run()
        ran = len(self._agents)
        self._obs_runs.inc(ran)
        return ran

    def run_window(
        self, start: int, hours: int, advance: Callable[[], None]
    ) -> int:
        """Run ``hours`` consecutive ticks from ``start``, invoking
        ``advance()`` after each (the study passes the clock's one-tick
        advance, which also fires due delayed-removal callbacks). Returns
        total agent runs.

        Per-tick work is exactly ``run_due(t); advance()`` for each tick
        in ``[start, start + hours)``, with the per-tick dispatch loop
        hoisted out of :meth:`repro.core.study.Study.tick`.
        """
        ran = 0
        run_due = self.run_due
        for now in range(start, start + hours):
            ran += run_due(now)
            advance()
        return ran
