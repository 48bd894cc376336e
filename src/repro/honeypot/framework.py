"""The honeypot account framework (paper Section 4.1).

"We developed a honeypot account framework to programmatically manage a
large number of Instagram accounts. Our framework supports
campaign-specific accounts, account creation, posting content, deletion,
and data collection of all inbound and outbound actions on the account."

Account types (Section 4.1.1):

* **empty** — minimum viable: 10+ photos from one content category.
* **lived-in** — full profile (picture, biography, name) and follows
  10-20 high-profile accounts, but no followers at creation.
* **inactive** — like empty, but never registered anywhere; the
  attribution baseline (Section 4.1.3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.netsim.fabric import NetworkFabric
from repro.platform.instagram import InstagramPlatform
from repro.platform.columns import ActionView
from repro.platform.models import AccountId, ActionStatus, Profile

PHOTO_CATEGORIES = ("dogs", "cats", "lizards", "food")

#: Lived-in honeypots follow this many high-profile accounts.
LIVED_IN_FOLLOWS = (10, 20)

#: "High-profile" cut: the paper used >1M-follower accounts; at simulation
#: scale we use the population's top percentile, expressed as a minimum
#: in-degree supplied by the caller.


class HoneypotKind(enum.Enum):
    EMPTY = "empty"
    LIVED_IN = "lived-in"
    INACTIVE = "inactive"


@dataclass
class HoneypotAccount:
    """One managed honeypot with its access credentials and endpoint."""

    account_id: AccountId
    username: str
    password: str
    kind: HoneypotKind
    endpoint: ClientEndpoint
    category: str
    created_at: int
    campaign: str = ""
    deleted: bool = False


class HoneypotFramework:
    """Creates, instruments, and tears down honeypot accounts."""

    def __init__(self, platform: InstagramPlatform, fabric: NetworkFabric, rng: np.random.Generator):
        self.platform = platform
        self.fabric = fabric
        self.rng = rng
        self.accounts: list[HoneypotAccount] = []
        #: actions the research framework itself performed (e.g. the
        #: lived-in accounts' initial follows); excluded from measurement
        #: since the researchers know which actions were their own
        self.self_action_ids: set[int] = set()
        self._counter = itertools.count(1)
        #: countries the research team sources diverse IPs from
        self.access_countries = ("USA", "GBR", "DEU")
        for country in self.access_countries:
            fabric.ensure_country(country)

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    def _new_endpoint(self) -> ClientEndpoint:
        """A fresh residential endpoint; the paper deliberately used "a
        diverse set of commercial and residential IP addresses"."""
        country = self.access_countries[int(self.rng.integers(0, len(self.access_countries)))]
        return self.fabric.home_endpoint(country, DeviceFingerprint("android"))

    def _create(self, kind: HoneypotKind, campaign: str, photos: int) -> HoneypotAccount:
        index = next(self._counter)
        username = f"honeypot_{kind.value.replace('-', '')}_{index:04d}"
        password = f"hp_pw_{index:04d}"
        profile = Profile()
        if kind is HoneypotKind.LIVED_IN:
            profile = Profile(
                display_name=f"Casey {index}",
                biography="travel | coffee | photos",
                has_profile_picture=True,
            )
        account = self.platform.create_account(username, password, profile)
        category = PHOTO_CATEGORIES[int(self.rng.integers(0, len(PHOTO_CATEGORIES)))]
        for photo in range(photos):
            self.platform.media.create(
                account.account_id,
                self.platform.clock.now,
                caption=f"{category} #{photo}",
                hashtags=(category,),
            )
        endpoint = self._new_endpoint()
        self.platform.auth.login(account.account_id, password, endpoint, self.platform.clock.now)
        honeypot = HoneypotAccount(
            account_id=account.account_id,
            username=username,
            password=password,
            kind=kind,
            endpoint=endpoint,
            category=category,
            created_at=self.platform.clock.now,
            campaign=campaign,
        )
        self.accounts.append(honeypot)
        return honeypot

    def create_empty(self, campaign: str = "", photos: int = 10) -> HoneypotAccount:
        """An empty honeypot: photos only (Section 4.1.1)."""
        if photos < 10:
            raise ValueError("empty honeypots carry 10 or more photos")
        return self._create(HoneypotKind.EMPTY, campaign, photos)

    def create_lived_in(
        self, campaign: str = "", photos: int = 12, high_profile_pool: list[AccountId] | None = None
    ) -> HoneypotAccount:
        """A lived-in honeypot: full profile + follows high-profile accounts."""
        honeypot = self._create(HoneypotKind.LIVED_IN, campaign, photos)
        pool = high_profile_pool or []
        if pool:
            lo, hi = LIVED_IN_FOLLOWS
            count = min(int(self.rng.integers(lo, hi + 1)), len(pool))
            picks = self.rng.choice(len(pool), size=count, replace=False)
            session = self.platform.login(honeypot.username, honeypot.password, honeypot.endpoint)
            # one actor's set-up is one batch scope, like an agent run
            with self.platform.action_batch():
                for pick in picks:
                    target = pool[int(pick)]
                    if not self.platform.graph.is_following(honeypot.account_id, target):
                        self.self_action_ids.add(
                            self.platform.follow(session, target, honeypot.endpoint)
                        )
        return honeypot

    def create_inactive(self, campaign: str = "baseline", photos: int = 10) -> HoneypotAccount:
        """An attribution-baseline account: never registered anywhere."""
        return self._create(HoneypotKind.INACTIVE, campaign, photos)

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def inbound_actions(self, honeypot: HoneypotAccount, since: int = 0) -> list[ActionView]:
        """All delivered inbound actions on the honeypot since ``since``.

        Excludes the honeypot's own initial follows' side effects (there
        are none inbound) — everything inbound is attributable to the
        linked AAS once the baseline shows silence.
        """
        return [
            r
            for r in self.platform.log.by_target_between(honeypot.account_id, since, None)
            if r.status is not ActionStatus.BLOCKED
        ]

    def outbound_actions(
        self, honeypot: HoneypotAccount, since: int = 0, include_self: bool = False
    ) -> list[ActionView]:
        """Delivered outbound actions from the honeypot since ``since``.

        Actions the framework itself performed (lived-in setup follows)
        are excluded unless ``include_self`` — once an account is
        enrolled, everything else outbound is AAS automation.
        """
        return [
            r
            for r in self.platform.log.by_actor_between(honeypot.account_id, since, None)
            if r.status is not ActionStatus.BLOCKED
            and (include_self or r.action_id not in self.self_action_ids)
        ]

    def baseline_is_quiet(self) -> bool:
        """Attribution check: no inactive honeypot received any action."""
        for honeypot in self.accounts:
            if honeypot.kind is not HoneypotKind.INACTIVE or honeypot.deleted:
                continue
            if self.inbound_actions(honeypot):
                return False
        return True

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def delete(self, honeypot: HoneypotAccount) -> None:
        """Delete one honeypot, scrubbing its platform footprint."""
        if honeypot.deleted:
            return
        self.platform.delete_account(honeypot.account_id)
        honeypot.deleted = True

    def delete_all(self, campaign: str | None = None) -> int:
        """Delete all (or one campaign's) honeypots; returns count."""
        deleted = 0
        for honeypot in self.accounts:
            if honeypot.deleted:
                continue
            if campaign is not None and honeypot.campaign != campaign:
                continue
            self.delete(honeypot)
            deleted += 1
        return deleted
