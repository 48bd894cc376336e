"""Tests for the core platform data types."""

import pytest

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.models import (
    Account,
    ActionStatus,
    ActionType,
    ApiSurface,
    Profile,
)
from tests.oracles.actionlog import ActionRecord


class TestProfile:
    def test_completeness_scale(self):
        assert Profile().completeness == 0.0
        assert Profile(display_name="x").completeness == pytest.approx(1 / 3)
        assert (
            Profile(display_name="x", biography="b", has_profile_picture=True).completeness
            == 1.0
        )


class TestAccount:
    def test_empty_username_rejected(self):
        with pytest.raises(ValueError):
            Account(account_id=1, username="", created_at=0)

    def test_defaults(self):
        account = Account(account_id=1, username="u", created_at=5)
        assert not account.is_deleted
        assert account.deleted_at is None


class TestActionRecord:
    def _record(self, tick=30, status=ActionStatus.DELIVERED):
        return ActionRecord(
            action_id=0,
            action_type=ActionType.LIKE,
            actor=1,
            tick=tick,
            endpoint=ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android", "aas-z")),
            api=ApiSurface.PRIVATE_MOBILE,
            status=status,
            target_account=2,
        )

    def test_day_property(self):
        assert self._record(tick=0).day == 0
        assert self._record(tick=23).day == 0
        assert self._record(tick=24).day == 1

    def test_asn_property(self):
        assert self._record().asn == 64512

    def test_mark_removed_transitions(self):
        record = self._record()
        record.mark_removed(50)
        assert record.status is ActionStatus.REMOVED
        assert record.removed_at == 50

    def test_blocked_cannot_be_removed(self):
        record = self._record(status=ActionStatus.BLOCKED)
        with pytest.raises(ValueError):
            record.mark_removed(50)

    def test_slots_prevent_typo_attributes(self):
        record = self._record()
        with pytest.raises(AttributeError):
            record.some_new_field = 1  # slots=True catches typos


class TestEnums:
    def test_five_action_types(self):
        assert {t.value for t in ActionType} == {
            "like",
            "follow",
            "comment",
            "post",
            "unfollow",
        }

    def test_api_surfaces(self):
        assert ApiSurface.PUBLIC_OAUTH.value == "public-oauth"
        assert ApiSurface.PRIVATE_MOBILE.value == "private-mobile"
