"""The service-side payment ledger.

The paper *estimates* revenue from observable activity (Section 5.2);
the simulated services additionally keep ground-truth ledgers so the
estimators' accuracy can be quantified — something the authors could
not do. Table 10's new-vs-preexisting payer split is computed here.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.platform.models import AccountId
from repro.util.timeutils import days


@dataclass(frozen=True)
class Payment:
    """One customer payment."""

    customer: AccountId
    amount_cents: int
    tick: int
    item: str

    def __post_init__(self):
        if self.amount_cents <= 0:
            raise ValueError("payments must be positive")


class PaymentLedger:
    """Append-only payment history for one service."""

    def __init__(self):
        self._payments: list[Payment] = []
        self._by_customer: dict[AccountId, list[int]] = defaultdict(list)

    def record(self, payment: Payment) -> None:
        self._by_customer[payment.customer].append(len(self._payments))
        self._payments.append(payment)

    def __len__(self) -> int:
        return len(self._payments)

    def __iter__(self):
        return iter(self._payments)

    def payments_of(self, customer: AccountId) -> list[Payment]:
        return [self._payments[i] for i in self._by_customer.get(customer, ())]

    def total_cents(self, start_tick: int = 0, end_tick: int | None = None) -> int:
        """Gross revenue in [start_tick, end_tick)."""
        return sum(
            p.amount_cents
            for p in self._payments
            if p.tick >= start_tick and (end_tick is None or p.tick < end_tick)
        )

    def first_payment_tick(self, customer: AccountId) -> int | None:
        payments = self.payments_of(customer)
        if not payments:
            return None
        return min(p.tick for p in payments)

    def new_vs_preexisting_split(self, window_start: int, window_ticks: int = days(30)) -> dict[str, int]:
        """Revenue split between first-time and repeat payers (Table 10).

        A payer is "new" in the window if their first-ever payment falls
        inside it; otherwise they are a preexisting customer renewing.
        Returns cents for each class.
        """
        window_end = window_start + window_ticks
        new_cents = 0
        preexisting_cents = 0
        for payment in self._payments:
            if not window_start <= payment.tick < window_end:
                continue
            first = self.first_payment_tick(payment.customer)
            if first is not None and first >= window_start:
                new_cents += payment.amount_cents
            else:
                preexisting_cents += payment.amount_cents
        return {"new": new_cents, "preexisting": preexisting_cents}
