"""The countermeasure engine (paper Section 6.1).

Two intervention responses are supported:

* **Synchronous block** — the action fails visibly; the caller receives
  :class:`~repro.platform.errors.ActionBlockedError`. This is the
  transparent countermeasure that acts as a detection oracle for AASs.
* **Delayed removal** — the action succeeds, then is silently undone a
  configurable delay later (one day in the paper). The actor is not
  notified; only an observer re-reading platform state can tell.

Policies are pluggable: the interventions package supplies the paper's
threshold-and-bin policy, while tests use simple lambdas. The engine
asks every registered policy and applies the *strictest* decision
(BLOCK > DELAY_REMOVE > ALLOW).

The platform consults the engine once per attempted action, inside
the action-batch scope every action runs in (DESIGN.md §15), so a
decision is on the hot path of every policed action: contexts are
plain named tuples, decisions hash by identity, and a delayed removal
names its log row by action id — the row is still pending in the
scope when the removal is scheduled, and is resolved from the log only
when the removal fires.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Optional, Protocol

from repro.netsim.client import ClientEndpoint
from repro.platform.clock import SimClock
from repro.platform.columns import ActionView
from repro.platform.models import AccountId, ActionStatus, ActionType, MediaId
from repro.util.timeutils import days


class CountermeasureDecision(enum.Enum):
    """Ordered by strictness; the engine applies the max over policies."""

    ALLOW = 0
    DELAY_REMOVE = 1
    BLOCK = 2

    #: identity hash in C: members are singletons compared by identity,
    #: and ``Enum.__hash__`` is a Python-level call on every dict probe
    #: (policies tally ``decisions_applied`` per decision)
    __hash__ = object.__hash__


_ALLOW = CountermeasureDecision.ALLOW
_DELAY_REMOVE = CountermeasureDecision.DELAY_REMOVE
_BLOCK = CountermeasureDecision.BLOCK


class ActionContext(NamedTuple):
    """What a policy may inspect when deciding on a prospective action.

    Immutable; one is built per policed action, so it is a named tuple
    rather than a frozen dataclass (no per-field ``object.__setattr__``).
    """

    actor: AccountId
    action_type: ActionType
    endpoint: ClientEndpoint
    tick: int
    target_account: Optional[AccountId] = None
    target_media: Optional[MediaId] = None


class CountermeasurePolicy(Protocol):
    """Anything with a ``decide`` method can act as a policy."""

    def decide(self, context: ActionContext) -> CountermeasureDecision: ...


class CountermeasureEngine:
    """Applies registered policies to actions and manages delayed removal."""

    def __init__(self, clock: SimClock, removal_delay_ticks: int = days(1)):
        if removal_delay_ticks <= 0:
            raise ValueError("removal delay must be positive")
        self._clock = clock
        self._policies: list[CountermeasurePolicy] = []
        self.removal_delay_ticks = removal_delay_ticks
        self.blocked_count = 0
        self.delayed_removal_count = 0

    def add_policy(self, policy: CountermeasurePolicy) -> None:
        self._policies.append(policy)

    def remove_policy(self, policy: CountermeasurePolicy) -> None:
        self._policies.remove(policy)

    @property
    def has_policies(self) -> bool:
        """Whether any policy is registered.

        With none, :meth:`decide` is vacuously ALLOW for every context,
        so the platform skips building :class:`ActionContext` objects.
        Its action-batch scope reads this once at entry and polices every
        action in the scope accordingly, which is sound because policies
        are only (un)installed between agent runs (DESIGN.md §15).
        """
        return bool(self._policies)

    def decide(self, context: ActionContext) -> CountermeasureDecision:
        """Strictest decision across all policies (ALLOW if none).

        Every policy is asked, even after a BLOCK: policies count the
        attempts they see.
        """
        decision = _ALLOW
        for policy in self._policies:
            verdict = policy.decide(context)
            if verdict is _BLOCK:
                decision = _BLOCK
            elif verdict is _DELAY_REMOVE and decision is _ALLOW:
                decision = _DELAY_REMOVE
        return decision

    def schedule_removal(
        self,
        action_id: int,
        resolve: Callable[[int], ActionView],
        undo: Callable[[ActionView], bool],
    ) -> None:
        """Arrange for action ``action_id`` to be undone ``removal_delay_ticks`` later.

        ``resolve`` maps the id to its log row when the removal fires (the
        platform passes ``log.get``): the row deferred in its action-batch
        scope is written by then, because clock callbacks fire only in
        :meth:`SimClock.advance`, outside every scope. ``undo`` reverses
        the action's platform effect (drop the follow edge, withdraw the
        like) and returns True if there was anything left to undo — the
        actor may have reversed the action themselves in the meantime
        (e.g. an AAS-issued unfollow), in which case the row keeps its
        DELIVERED status.
        """
        self.delayed_removal_count += 1

        def _fire(tick: int) -> None:
            record = resolve(action_id)
            if record.status is not ActionStatus.DELIVERED:
                return
            if undo(record):
                record.mark_removed(tick)

        self._clock.call_after(self.removal_delay_ticks, _fire)

    def note_block(self) -> None:
        self.blocked_count += 1
