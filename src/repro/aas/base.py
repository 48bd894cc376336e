"""Shared AAS machinery: descriptors, customer records, credential use.

A required step when registering with any AAS is handing over Instagram
credentials (Section 3.3.1). The base class stores them, logs in through
the platform like any client would (from the service's hosting
endpoints, with its automation stack's fingerprint), caches sessions,
and transparently re-authenticates — losing the customer if the password
was reset, exactly the revocation mechanism the paper describes.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.aas.ledger import Payment, PaymentLedger
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.netsim.fabric import NetworkFabric
from repro.obs import Counter
from repro.platform.auth import Session
from repro.platform.errors import (
    ActionBlockedError,
    AuthenticationError,
    InvalidActionError,
    PlatformError,
)
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId, ActionType


class ServiceType(enum.Enum):
    """The paper's AAS taxonomy (Section 3)."""

    RECIPROCITY_ABUSE = "reciprocity-abuse"
    COLLUSION_NETWORK = "collusion-network"


class IssueOutcome(enum.Enum):
    """What happened to one automation-issued action."""

    DELIVERED = "delivered"
    BLOCKED = "blocked"
    INVALID = "invalid"  # duplicate like/follow etc.
    LOST_ACCESS = "lost-access"  # credentials revoked
    FAILED = "failed"

    #: identity hash in C (see :class:`repro.platform.models.ActionType`)
    __hash__ = object.__hash__


@dataclass(frozen=True)
class ServiceDescriptor:
    """Static facts about a service (paper Tables 1 and 7)."""

    name: str
    service_type: ServiceType
    offered_actions: frozenset[ActionType]
    operating_country: str
    asn_countries: tuple[str, ...]
    #: how many exit IPs the service runs per hosting ASN; Followersgratis's
    #: tiny pool is why pre-existing defenses already policed it (Section 5)
    endpoints_per_asn: int = 8
    #: the automation stack's low-level client tell. Franchises of one
    #: parent (Instalex/Instazood) share a stack — which is exactly why
    #: the paper "cannot differentiate actions performed by individual
    #: franchises" and reports them combined as Insta*.
    stack_variant: str = ""

    def __post_init__(self):
        if not self.offered_actions:
            raise ValueError("a service must offer at least one action type")
        required = {ActionType.LIKE, ActionType.FOLLOW}
        if not required <= self.offered_actions:
            raise ValueError("every AAS offers likes and follows (paper Section 3.3.1)")


@dataclass
class CustomerRecord:
    """One enrolled customer account."""

    account_id: AccountId
    username: str
    password: str
    enrolled_at: int
    requested_actions: frozenset[ActionType]
    trial_expires: int
    paid_until: int = 0
    lost_credentials: bool = False
    cancelled: bool = False
    #: follows this service issued on the customer's behalf (for the
    #: auto-unfollow feature all reciprocity AASs offer)
    issued_follows: list[AccountId] = field(default_factory=list)
    #: accounts already targeted for this customer (services avoid repeats)
    targeted: set[AccountId] = field(default_factory=set)
    #: optional audience restriction: "customers can provide ... a list
    #: of hashtags to narrow the accounts that a AAS will interact with"
    #: (paper Section 3.3.1); empty means no restriction
    target_hashtags: tuple[str, ...] = ()

    def service_active(self, tick: int) -> bool:
        """Whether automation should run for this customer at ``tick``."""
        if self.lost_credentials or self.cancelled:
            return False
        return tick < max(self.trial_expires, self.paid_until)

    def is_paid(self, tick: int) -> bool:
        return tick < self.paid_until


class AccountAutomationService(abc.ABC):
    """Base class for both engine kinds."""

    def __init__(
        self,
        descriptor: ServiceDescriptor,
        platform: InstagramPlatform,
        fabric: NetworkFabric,
        rng: np.random.Generator,
    ):
        self.descriptor = descriptor
        self.platform = platform
        self.fabric = fabric
        self.rng = rng
        self.ledger = PaymentLedger()
        self.customers: dict[AccountId, CustomerRecord] = {}
        #: the automation stack's fingerprint: claims to be a stock mobile
        #: client but carries the stack's stable low-level tells
        variant = descriptor.stack_variant or f"aas-{descriptor.name.lower()}"
        self.fingerprint = DeviceFingerprint(family="android", variant=variant)
        self._endpoints: list[ClientEndpoint] = []
        # Franchises sharing a stack (stack_variant) also share the parent's
        # hosting infrastructure, i.e. the same exit ASes.
        infra = (descriptor.stack_variant or descriptor.name).lower()
        for country in descriptor.asn_countries:
            for _ in range(descriptor.endpoints_per_asn):
                self._endpoints.append(
                    fabric.hosting_endpoint(country, self.fingerprint, name=f"{infra}-{country.lower()}")
                )
        self._endpoint_cursor = 0
        self._sessions: dict[AccountId, Session] = {}
        self.outcome_counts: dict[IssueOutcome, int] = {o: 0 for o in IssueOutcome}
        # per-service emission telemetry, resolved once off the platform's
        # obs handle so the per-action cost is a single counter bump
        self._obs_outcomes: dict[IssueOutcome, Counter] = {
            o: platform.obs.counter("aas.actions", service=descriptor.name, outcome=o.value)
            for o in IssueOutcome
        }

    # ------------------------------------------------------------------
    # Network identity
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.descriptor.name

    def current_asns(self) -> set[int]:
        return {endpoint.asn for endpoint in self._endpoints}

    def next_endpoint(self) -> ClientEndpoint:
        endpoint = self._endpoints[self._endpoint_cursor]
        self._endpoint_cursor = (self._endpoint_cursor + 1) % len(self._endpoints)
        return endpoint

    def replace_endpoints(self, endpoints: list[ClientEndpoint]) -> None:
        """Swap the exit pool (ASN migration / proxy adoption)."""
        if not endpoints:
            raise ValueError("cannot run a service without endpoints")
        self._endpoints = list(endpoints)
        self._endpoint_cursor = 0
        self._sessions.clear()  # sessions re-minted from the new origin
        self._on_endpoints_replaced()

    def _on_endpoints_replaced(self) -> None:
        """Hook for engines: fresh infrastructure resets adaptation state
        (the service assumes the new exits are clean)."""

    # ------------------------------------------------------------------
    # Customers and credentials
    # ------------------------------------------------------------------

    def register_customer(
        self,
        username: str,
        password: str,
        requested_actions: frozenset[ActionType] | set[ActionType],
        trial_ticks: int,
        backdate_ticks: int = 0,
        target_hashtags: tuple[str, ...] = (),
    ) -> CustomerRecord:
        """Enroll an account; the service logs in immediately (Section 4.2:
        "our accounts becoming active within minutes of requesting free
        service").

        ``backdate_ticks`` lets scenario builders seed a pre-existing
        customer base whose enrollment predates the measurement window.
        """
        requested = frozenset(requested_actions)
        unsupported = requested - self.descriptor.offered_actions
        if unsupported:
            raise ValueError(f"{self.name} does not offer {sorted(a.value for a in unsupported)}")
        if backdate_ticks < 0:
            raise ValueError("backdate_ticks must be non-negative")
        account_id = self.platform.resolve_username(username)
        if account_id in self.customers and not self.customers[account_id].cancelled:
            raise ValueError(f"{username} is already enrolled in {self.name}")
        endpoint = self.next_endpoint()
        session = self.platform.login(username, password, endpoint)  # raises on bad creds
        now = self.platform.clock.now
        enrolled_at = now - backdate_ticks
        record = CustomerRecord(
            account_id=account_id,
            username=username,
            password=password,
            enrolled_at=enrolled_at,
            requested_actions=requested,
            trial_expires=enrolled_at + trial_ticks,
            target_hashtags=tuple(tag.lower() for tag in target_hashtags),
        )
        self.customers[account_id] = record
        self._sessions[account_id] = session
        return record

    def cancel_customer(self, account_id: AccountId) -> None:
        record = self.customers.get(account_id)
        if record is None:
            raise KeyError(f"unknown customer {account_id}")
        record.cancelled = True
        self._sessions.pop(account_id, None)

    def record_payment(self, account_id: AccountId, amount_cents: int, item: str) -> Payment:
        if account_id not in self.customers:
            raise KeyError(f"unknown customer {account_id}")
        payment = Payment(
            customer=account_id,
            amount_cents=amount_cents,
            tick=self.platform.clock.now,
            item=item,
        )
        self.ledger.record(payment)
        return payment

    def active_customers(self, tick: int) -> list[CustomerRecord]:
        return [c for c in self.customers.values() if c.service_active(tick)]

    def _session_for(self, record: CustomerRecord) -> Optional[Session]:
        """A valid session for the customer, re-logging-in as needed.

        Returns None (and marks the customer lost) if the stored password
        no longer works — the paper's revocation path.
        """
        session = self._sessions.get(record.account_id)
        if session is not None:
            try:
                self.platform.auth.validate(session)
                return session
            except PlatformError:
                pass
        try:
            session = self.platform.login(record.username, record.password, self.next_endpoint())
        except (AuthenticationError, PlatformError):
            record.lost_credentials = True
            self._sessions.pop(record.account_id, None)
            return None
        self._sessions[record.account_id] = session
        return session

    # ------------------------------------------------------------------
    # Action issuing
    # ------------------------------------------------------------------

    def _issue(self, record: CustomerRecord, call: Callable[[Session, ClientEndpoint], object]) -> IssueOutcome:
        """Run one automation action from the customer's account.

        ``call`` receives a session and the service exit endpoint and
        performs the platform call. Outcome classification feeds the
        service's block detector.
        """
        session = self._session_for(record)
        if session is None:
            outcome = IssueOutcome.LOST_ACCESS
        else:
            endpoint = self.next_endpoint()
            try:
                call(session, endpoint)
                outcome = IssueOutcome.DELIVERED
            except ActionBlockedError:
                outcome = IssueOutcome.BLOCKED
            except InvalidActionError:
                outcome = IssueOutcome.INVALID
            except PlatformError:
                outcome = IssueOutcome.FAILED
        self.outcome_counts[outcome] += 1
        self._obs_outcomes[outcome].inc()
        return outcome

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def tick(self) -> None:
        """Run one simulated hour of the service's automation."""
