"""Bucketed timing-wheel scheduling for the study's per-tick agents.

:meth:`repro.core.study.Study.tick` used to visit every driver, service,
and honeypot helper 24 times per simulated day regardless of whether it
had anything to do. The wheel inverts that: each agent reports, after it
runs, the next tick it needs to run at (``next_wake_tick``), and the
study only visits agents whose wake tick has arrived.

Determinism contract: agents that draw from their RNG every tick (the
clientele and organic drivers, the service engines) must report
``now + 1`` — skipping them would change the draw sequence and perturb
the seeded results. Only agents whose idle tick is verifiably a no-op
(no RNG, no platform calls) may park themselves; the collusion-honeypot
driver is the canonical example. The golden-digest suite in
``tests/test_core_golden_digests.py`` pins the seeded study these
rules produce.

Within a tick, due agents always run in registration order.

``core.scheduler.agent_runs`` — one increment per agent actually run —
doubles as the scheduler's work unit: perfbench reports its delta over
the timed region as ``obs.cost_units.scheduler`` (classified by
:mod:`repro.obs.prof`).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, ContextManager, Optional

from repro.obs import NULL_OBS, Observability

#: return value of a ``next_wake_tick`` hook meaning "park me; I will be
#: woken explicitly (or never)"
NEVER: None = None


@dataclass
class _Agent:
    name: str
    run: Callable[[], None]
    next_wake: Optional[Callable[[int], Optional[int]]]
    index: int
    scheduled_at: Optional[int] = None


class TimingWheel:
    """Exact-tick buckets of agents, visited once per simulated hour."""

    def __init__(
        self,
        obs: Optional[Observability] = None,
        run_scope: Optional[Callable[[], ContextManager]] = None,
    ):
        #: optional context-manager factory entered around each agent run
        #: — the study passes :meth:`InstagramPlatform.action_batch`, so
        #: the batch boundary is exactly one actor-tick (DESIGN.md §15).
        #: The scope must be transparent to the agent: actions inside it
        #: observe identical platform state, and deferred work is flushed
        #: on exit, before the next agent runs.
        self._run_scope = run_scope
        self._agents: list[_Agent] = []
        self._by_name: dict[str, _Agent] = {}
        self._buckets: dict[int, list[_Agent]] = {}
        _obs = obs if obs is not None else NULL_OBS
        self._obs_agents = _obs.gauge("core.scheduler.agents")
        self._obs_runs = _obs.counter("core.scheduler.agent_runs")
        #: agents that parked themselves (next_wake returned NEVER) /
        #: wake() requests pulling an agent's schedule earlier
        self._obs_parks = _obs.counter("core.scheduler.parks")
        self._obs_wakes = _obs.counter("core.scheduler.wakes")
        self._obs_idle = _obs.counter("core.scheduler.idle_ticks")
        self._obs_due = _obs.histogram("core.scheduler.due_agents")

    def add(
        self,
        name: str,
        run: Callable[[], None],
        next_wake: Optional[Callable[[int], Optional[int]]] = None,
        first_tick: int = 0,
    ) -> None:
        """Register an agent, due at ``first_tick``.

        ``next_wake(now)`` is consulted after each run; ``None`` (the hook
        itself, or its return value — :data:`NEVER`) means "due every
        tick" and "parked", respectively.
        """
        if name in self._by_name:
            raise ValueError(f"agent {name!r} already registered")
        agent = _Agent(name=name, run=run, next_wake=next_wake, index=len(self._agents))
        self._agents.append(agent)
        self._by_name[name] = agent
        self._obs_agents.set(len(self._agents))
        self._schedule(agent, first_tick)

    def _schedule(self, agent: _Agent, tick: int) -> None:
        agent.scheduled_at = tick
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = [agent]
        else:
            # keep buckets ordered by registration index at insertion
            # time (buckets are a handful of agents, so insort is one
            # short shift) — run_due then pops a pre-ordered batch
            # instead of sorting every tick
            insort(bucket, agent, key=lambda a: a.index)

    def wake(self, name: str, tick: int) -> None:
        """Pull an agent's wake earlier (or unpark it) — e.g. after an
        external event creates work for a parked agent."""
        self._obs_wakes.inc()
        agent = self._by_name[name]
        if agent.scheduled_at is not None and agent.scheduled_at <= tick:
            return
        if agent.scheduled_at is not None:
            self._buckets[agent.scheduled_at].remove(agent)
        self._schedule(agent, tick)

    def scheduled_tick(self, name: str) -> Optional[int]:
        """When the agent next runs (None = parked). For tests/diagnostics."""
        return self._by_name[name].scheduled_at

    def run_due(self, now: int) -> int:
        """Run every agent due at ``now`` (in registration order); returns
        how many ran. Must be called for consecutive ticks."""
        due = self._buckets.pop(now, None)
        if not due:
            self._obs_idle.inc()
            return 0
        self._obs_due.observe(len(due))
        scope = self._run_scope
        for agent in due:
            agent.scheduled_at = None
            self._obs_runs.inc()
            if scope is None:
                agent.run()
            else:
                with scope():
                    agent.run()
            if agent.scheduled_at is not None:
                continue  # the run itself woke the agent (re-entrant wake)
            wake = now + 1 if agent.next_wake is None else agent.next_wake(now)
            if wake is not NEVER:
                self._schedule(agent, max(wake, now + 1))
            else:
                self._obs_parks.inc()
        return len(due)

    def run_window(
        self, start: int, hours: int, advance: Callable[[], None]
    ) -> int:
        """Batched stepping: drain ``hours`` consecutive tick buckets in
        one call, invoking ``advance()`` after each tick's batch (the
        study passes the clock's one-tick advance, which also fires due
        delayed-removal callbacks). Returns total agent runs.

        Per-tick work is exactly ``run_due(t); advance()`` for each tick
        in ``[start, start + hours)`` — same agents, same registration-
        order tie-break, same RNG draw sequence — with the per-tick
        dispatch loop hoisted out of :meth:`repro.core.study.Study.tick`.
        """
        ran = 0
        run_due = self.run_due
        for now in range(start, start + hours):
            ran += run_due(now)
            advance()
        return ran
