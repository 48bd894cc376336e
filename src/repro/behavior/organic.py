"""The organic activity driver.

Advances the organic population one tick at a time:

* **Reciprocity**: users check notifications (per-user hourly rate); for
  each inbound like/follow they may reciprocate per the
  :class:`~repro.behavior.reciprocity.ReciprocityModel`. This is the
  channel reciprocity-abuse AASs exploit. A checked inbox's response
  candidates are all collected before any is acted on, and decided by
  one draw call on the ``reciprocity`` stream. That equals drawing per
  notification between responses because responding changes no actor's
  existence or attractiveness: the actor is never the responder, a like
  leaves the actor's ``media_of`` list untouched, a follow moves the
  responder's following count and not the actor's, and the like pick
  draws from the driver's own stream. Inboxes of accounts outside the
  population, such as honeypots, are dropped unread.
* **Background traffic**: users like and follow organically (media of
  accounts they follow, plus popularity-weighted discovery). This is the
  legitimate activity blended into mixed ASNs that intervention
  thresholds must not misclassify (Section 6.2's false-positive bound).

Organic users never discover zero-follower accounts on their own, so
inactive honeypot accounts receive no actions — the attribution baseline
the paper validated (Section 4.1.3) holds by construction, and tests
verify it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.behavior.population import OrganicPopulation
from repro.behavior.profiles import OrganicProfile, account_attractiveness
from repro.behavior.reciprocity import ReciprocityModel
from repro.platform.auth import Session
from repro.platform.errors import (
    ActionBlockedError,
    InvalidActionError,
    PlatformError,
)
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId, ActionType, ApiSurface
from repro.util.timeutils import HOURS_PER_DAY


@dataclass
class OrganicActivityParams:
    """Driver knobs."""

    #: fraction of background actions that are likes (rest are follows)
    background_like_share: float = 0.8
    #: minimum in-degree for an account to be organically "discoverable"
    discovery_min_followers: int = 1

    def __post_init__(self):
        if not 0.0 <= self.background_like_share <= 1.0:
            raise ValueError("background_like_share must be a probability")


class OrganicActivityDriver:
    """Runs organic reciprocity and background traffic each tick."""

    def __init__(
        self,
        platform: InstagramPlatform,
        population: OrganicPopulation,
        model: ReciprocityModel,
        rng: np.random.Generator,
        params: OrganicActivityParams | None = None,
    ):
        self.platform = platform
        self.population = population
        self.model = model
        self.params = params if params is not None else OrganicActivityParams()
        self._rng = rng
        #: memo of the profile-filtered following list, keyed by actor and
        #: validated by *identity* of the graph's following_view array:
        #: the columnar graph drops the cached view object on any mutation
        #: of that actor's out-row and builds a fresh one, so
        #: ``entry_view is view`` proves the filtered list is current (the
        #: memo holds a reference to the old view, so its id cannot be
        #: recycled)
        self._following_memo: dict[AccountId, tuple[object, list[AccountId]]] = {}
        #: memo of ``account_attractiveness``, validated by identity of
        #: the media store's cached ``media_of`` list (the store returns
        #: the same object until the owner's media change) plus the
        #: following count. The third input, profile completeness, is set
        #: once at account creation and never mutated afterwards, so
        #: those two cover every way the score can move.
        self._attr_memo: dict[AccountId, tuple[object, int, float]] = {}
        #: per-account (session, last-login-day) — one dict probe on the
        #: per-action hot path instead of two parallel dicts
        self._sessions: dict[AccountId, tuple[Session, int]] = {}
        #: flat ``account -> check_rate`` probe for the reciprocity scan:
        #: one dict get answers both "is this an organic account" and
        #: "at what rate" (profiles are fixed at construction, so the
        #: projection can never go stale)
        self._check_rates: dict[AccountId, float] = {
            account_id: profile.check_rate
            for account_id, profile in population.profiles.items()
        }
        # Precomputed background-actor sampling distribution.
        self._actor_ids = list(population.account_ids)
        rates = np.array(
            [population.profiles[a].background_rate for a in self._actor_ids], dtype=float
        )
        self._hourly_rate_total = float(rates.sum()) / HOURS_PER_DAY
        self._actor_cumulative = np.cumsum(rates)
        if self._actor_cumulative[-1] > 0:
            self._actor_cumulative = self._actor_cumulative / self._actor_cumulative[-1]
        # scalar sampling runs on bisect over a plain list: element-for-
        # element identical to np.searchsorted(side='left') on the same
        # floats (test-pinned), minus the per-call numpy dispatch cost
        self._actor_cumulative_list: list[float] = self._actor_cumulative.tolist()
        # Observability counters.
        self.reciprocal_actions = 0
        self.background_actions = 0
        self.blocked_actions = 0

    # ------------------------------------------------------------------
    # Session plumbing
    # ------------------------------------------------------------------

    def _session_for(self, account_id: AccountId) -> Session:
        # Users re-login (from their home network) at most daily; this
        # keeps their own logins dominant over the occasional AAS login,
        # which the geolocation rule relies on (paper footnote 3).
        day = self.platform.clock.day
        entry = self._sessions.get(account_id)
        if entry is not None and entry[1] == day:
            session = entry[0]
            try:
                self.platform.auth.validate(session)
                return session
            except PlatformError:
                pass
        profile = self.population.profiles[account_id]
        account = self.platform.get_account(account_id)
        session = self.platform.login(account.username, profile.password, profile.endpoint)
        self._sessions[account_id] = (session, day)
        return session

    def _perform(self, action, *args, **kwargs) -> bool:
        """Execute a platform call, tallying blocks."""
        try:
            action(*args, **kwargs)
            return True
        except ActionBlockedError:
            self.blocked_actions += 1
            return False
        except (InvalidActionError, PlatformError):
            return False

    # ------------------------------------------------------------------
    # Reciprocity
    # ------------------------------------------------------------------

    def _attractiveness(self, actor: AccountId) -> float:
        """``account_attractiveness`` behind the identity memo."""
        platform = self.platform
        media = platform.media.media_of(actor)
        following = platform.following_count(actor)
        entry = self._attr_memo.get(actor)
        if entry is not None and entry[0] is media and entry[1] == following:
            return entry[2]
        value = account_attractiveness(platform, actor)
        self._attr_memo[actor] = (media, following, value)
        return value

    def _process_inbox(self, account_id: AccountId) -> None:
        profile = self.population.profiles[account_id]
        notifications = self.platform.notifications.drain(account_id)
        account_exists = self.platform.account_exists
        response_items = self.model.response_items
        propensity = profile.propensity
        affinity = profile.follow_on_like_affinity
        attractiveness_of = self._attractiveness
        # every response candidate of the inbox first, then one draw
        # call for all of them: responding changes no actor's existence
        # or attractiveness (see the module docstring)
        candidates: list[tuple[AccountId, ActionType, float]] = []
        for notification in notifications:
            actor = notification.actor
            if actor == account_id or not account_exists(actor):
                continue
            for response_type, probability in response_items(
                notification.action_type, attractiveness_of(actor), propensity, affinity
            ):
                candidates.append((actor, response_type, probability))
        draws = self.model.draws(len(candidates))
        for (actor, response_type, probability), draw in zip(candidates, draws):
            if draw < probability:
                self._execute_response(account_id, actor, response_type, profile)

    def _execute_response(
        self,
        responder: AccountId,
        actor: AccountId,
        response_type: ActionType,
        profile: OrganicProfile,
    ) -> None:
        session = self._session_for(responder)
        if response_type is ActionType.FOLLOW:
            if self.platform.graph.is_following(responder, actor):
                return
            if self._perform(
                self.platform.follow, session, actor, profile.endpoint, ApiSurface.PRIVATE_MOBILE
            ):
                self.reciprocal_actions += 1
        elif response_type is ActionType.LIKE:
            media = self.platform.media.unliked_of(actor, responder)
            if not media:
                return
            choice = media[int(self._rng.integers(0, len(media)))]
            if self._perform(
                self.platform.like,
                session,
                choice.media_id,
                profile.endpoint,
                ApiSurface.PRIVATE_MOBILE,
            ):
                self.reciprocal_actions += 1

    def _run_reciprocity(self) -> None:
        rates_get = self._check_rates.get
        random = self._rng.random
        process = self._process_inbox
        notifications = self.platform.notifications
        for account_id in notifications.recipients_with_pending():
            rate = rates_get(account_id)
            if rate is None:
                # not an organic account: nothing reads its inbox, so
                # drop it rather than list it every tick
                notifications.drain(account_id)
                continue
            if random() < rate:
                process(account_id)

    # ------------------------------------------------------------------
    # Background traffic
    # ------------------------------------------------------------------

    def _run_background(self) -> None:
        event_count = int(self._rng.poisson(self._hourly_rate_total))
        cumulative = self._actor_cumulative_list
        actor_ids = self._actor_ids
        last = len(actor_ids) - 1
        platform = self.platform
        profiles = self.population.profiles
        random = self._rng.random
        integers = self._rng.integers
        session_for = self._session_for
        perform = self._perform
        like_share = self.params.background_like_share
        unliked_of = platform.media.unliked_of
        following_view = platform.graph.following_view
        following_memo = self._following_memo
        follower_count = platform.follower_count
        min_followers = self.params.discovery_min_followers
        for _ in range(event_count):
            draw = random()
            index = min(bisect_left(cumulative, draw), last)
            actor = actor_ids[index]
            # Actors come from the population and targets from the
            # profile-filtered following list / population discovery, and
            # population accounts are never deleted (only honeypot
            # accounts are, and they live outside ``profiles``), so
            # neither needs an existence probe.
            #
            # Target pick: an account the actor would plausibly interact
            # with. Background engagement stays within the organic
            # population: the paper's honeypots measured a 0.0%
            # like-response to follows, i.e. users do not spontaneously
            # engage with the fresh, unknown accounts they just followed
            # back. (Folded into the event loop so its locals hoist once
            # per tick rather than once per event.)
            #
            # following_view is sorted by contract: the follow set's
            # hash-table iteration order is a function of its mutation
            # history, which a snapshot/restore cycle (repro.fleet) does
            # not preserve — the RNG-indexed pick below must see a
            # reproducible ordering either way. The graph serves the view
            # from its cached sorted array (no copy).
            view = following_view(actor)
            entry = following_memo.get(actor)
            if entry is not None and entry[0] is view:
                following = entry[1]
            else:
                following = [account for account in view if account in profiles]
                following_memo[actor] = (view, following)
            target = None
            if following and random() < 0.7:
                target = following[int(integers(0, len(following)))]
            else:
                # Discovery: sample organically popular accounts.
                for _attempt in range(4):
                    pick = random()
                    candidate = actor_ids[min(bisect_left(cumulative, pick), last)]
                    if candidate == actor:
                        continue
                    if follower_count(candidate) >= min_followers:
                        target = candidate
                        break
            if target is None:
                continue
            profile = profiles[actor]
            session = session_for(actor)
            if random() < like_share:
                media = unliked_of(target, actor)
                if not media:
                    continue
                choice = media[int(integers(0, len(media)))]
                if perform(
                    platform.like,
                    session,
                    choice.media_id,
                    profile.endpoint,
                    ApiSurface.PRIVATE_MOBILE,
                ):
                    self.background_actions += 1
            else:
                if platform.graph.is_following(actor, target):
                    continue
                if perform(
                    platform.follow,
                    session,
                    target,
                    profile.endpoint,
                    ApiSurface.PRIVATE_MOBILE,
                ):
                    self.background_actions += 1

    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Run one simulated hour of organic behaviour."""
        self._run_reciprocity()
        self._run_background()
