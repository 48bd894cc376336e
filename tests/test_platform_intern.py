"""Tests for repro.platform.intern (the dense value interner)."""

import pickle

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.obs import Observability
from repro.platform.intern import Interner


class TestInterner:
    def test_ids_are_dense_and_first_seen_ordered(self):
        interner = Interner(name="letters")
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0  # stable on re-intern
        assert interner.intern("c") == 2
        assert len(interner) == 3
        assert list(interner) == ["a", "b", "c"]

    def test_value_roundtrip(self):
        interner = Interner(name="letters")
        for value in ("x", "y", "z"):
            assert interner.value(interner.intern(value)) == value

    def test_interns_equal_endpoints_to_one_id(self):
        interner = Interner(name="endpoints")
        a = ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android"))
        b = ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android"))
        assert a is not b
        assert interner.intern(a) == interner.intern(b)
        assert len(interner) == 1

    def test_hit_miss_counters(self):
        obs = Observability()
        interner = Interner(obs=obs, name="letters")
        interner.intern("a")
        interner.intern("a")
        interner.intern("b")
        snapshot = {
            (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
            for entry in obs.metrics.snapshot()["metrics"]
        }
        key = lambda path: (
            "platform.intern.lookups",
            (("path", path), ("table", "letters")),
        )
        assert snapshot[key("miss")] == 2
        assert snapshot[key("hit")] == 1

    def test_pickle_roundtrip(self):
        interner = Interner(name="letters")
        for value in ("a", "b", "c"):
            interner.intern(value)
        restored = pickle.loads(pickle.dumps(interner))
        assert list(restored) == ["a", "b", "c"]
        assert restored.intern("b") == 1
        assert restored.intern("d") == 3
