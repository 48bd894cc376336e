"""Tests for the service payment ledger."""

import pytest

from repro.aas.ledger import Payment, PaymentLedger


def pay(ledger, customer=1, cents=100, tick=0, item="sub"):
    payment = Payment(customer=customer, amount_cents=cents, tick=tick, item=item)
    ledger.record(payment)
    return payment


class TestPayment:
    def test_positive_amount_required(self):
        with pytest.raises(ValueError):
            Payment(customer=1, amount_cents=0, tick=0, item="x")


class TestPaymentLedger:
    def test_record_and_query(self):
        ledger = PaymentLedger()
        pay(ledger, customer=1, cents=100)
        pay(ledger, customer=2, cents=250)
        assert len(ledger) == 2
        assert ledger.total_cents() == 350
        assert {p.customer for p in ledger} == {1, 2}

    def test_window_filtering(self):
        ledger = PaymentLedger()
        pay(ledger, tick=10, cents=100)
        pay(ledger, tick=20, cents=200)
        pay(ledger, tick=30, cents=400)
        assert ledger.total_cents(start_tick=15, end_tick=30) == 200
        assert ledger.total_cents(start_tick=20) == 600

    def test_payments_of_customer(self):
        ledger = PaymentLedger()
        pay(ledger, customer=5, cents=100, tick=1)
        pay(ledger, customer=5, cents=100, tick=9)
        pay(ledger, customer=6, cents=100, tick=2)
        assert len(ledger.payments_of(5)) == 2
        assert ledger.first_payment_tick(5) == 1
        assert ledger.first_payment_tick(99) is None

    def test_negative_ticks_allowed_for_seeded_history(self):
        ledger = PaymentLedger()
        pay(ledger, tick=-500)
        assert ledger.first_payment_tick(1) == -500

    def test_new_vs_preexisting_split(self):
        ledger = PaymentLedger()
        # customer 1: paid long before the window, renews inside it
        pay(ledger, customer=1, cents=100, tick=-100)
        pay(ledger, customer=1, cents=100, tick=50)
        # customer 2: first-ever payment inside the window
        pay(ledger, customer=2, cents=300, tick=60)
        split = ledger.new_vs_preexisting_split(window_start=0, window_ticks=720)
        assert split["new"] == 300
        assert split["preexisting"] == 100
