"""Tests for dataset export/import."""

from repro.io import export_records, iter_records, load_records, record_from_dict, record_to_dict
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.models import ActionRecord, ActionStatus, ActionType, ApiSurface


def make_record(action_id=0, **overrides):
    defaults = dict(
        action_id=action_id,
        action_type=ActionType.FOLLOW,
        actor=11,
        tick=100,
        endpoint=ClientEndpoint(0x0A010203, 64512, DeviceFingerprint("android", "aas-x")),
        api=ApiSurface.PRIVATE_MOBILE,
        status=ActionStatus.DELIVERED,
        target_account=22,
    )
    defaults.update(overrides)
    return ActionRecord(**defaults)


class TestRoundTrip:
    def test_dict_roundtrip(self):
        record = make_record(comment_text=None)
        rebuilt = record_from_dict(record_to_dict(record))
        assert rebuilt == record

    def test_removed_record_roundtrip(self):
        record = make_record()
        record.mark_removed(124)
        rebuilt = record_from_dict(record_to_dict(record))
        assert rebuilt.status is ActionStatus.REMOVED
        assert rebuilt.removed_at == 124

    def test_comment_roundtrip(self):
        record = make_record(
            action_type=ActionType.COMMENT, target_media=5, comment_text="hey"
        )
        rebuilt = record_from_dict(record_to_dict(record))
        assert rebuilt.comment_text == "hey"
        assert rebuilt.target_media == 5

    def test_ip_serialized_human_readable(self):
        data = record_to_dict(make_record())
        assert data["ip"] == "10.1.2.3"


class TestFileIO:
    def test_export_and_load(self, tmp_path):
        records = [make_record(i, tick=i) for i in range(25)]
        path = tmp_path / "actions.jsonl"
        assert export_records(records, path) == 25
        loaded = load_records(path)
        assert loaded == records

    def test_iter_streams_lazily(self, tmp_path):
        records = [make_record(i) for i in range(5)]
        path = tmp_path / "actions.jsonl"
        export_records(records, path)
        iterator = iter_records(path)
        assert next(iterator).action_id == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "actions.jsonl"
        export_records([make_record(0)], path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(load_records(path)) == 1

    def test_platform_log_exports(self, tmp_path, endpoint):
        from repro.platform import InstagramPlatform

        platform = InstagramPlatform()
        alice = platform.create_account("alice", "pw")
        bob = platform.create_account("bob", "pw")
        session = platform.login("alice", "pw", endpoint)
        platform.follow(session, bob.account_id, endpoint)
        platform.unfollow(session, bob.account_id, endpoint)
        path = tmp_path / "log.jsonl"
        assert export_records(platform.log, path) == 2
        loaded = load_records(path)
        assert [r.action_type for r in loaded] == [ActionType.FOLLOW, ActionType.UNFOLLOW]
