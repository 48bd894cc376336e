"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import SeedSequenceFactory, derive_rng


class TestDeriveRng:
    def test_same_seed_label_reproduces(self):
        a = derive_rng(7, "x")
        b = derive_rng(7, "x")
        assert a.random() == b.random()

    def test_different_labels_diverge(self):
        a = derive_rng(7, "x")
        b = derive_rng(7, "y")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_different_seeds_diverge(self):
        a = derive_rng(7, "x")
        b = derive_rng(8, "x")
        assert a.random() != b.random()

    def test_returns_numpy_generator(self):
        assert isinstance(derive_rng(1, "z"), np.random.Generator)


class TestBatchedIntegers:
    """The collusion engine draws a saturated free-like visit's remaining
    media picks in one ``integers(0, n, size=k)`` call, where the
    per-attempt loop makes ``k`` scalar draws. That is exact only while
    NumPy gives both the same values and the same generator state; a
    NumPy upgrade that breaks it fails here, not only in the golden
    digests."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2**31 + 5])
    @pytest.mark.parametrize("k", [1, 5, 320])
    @pytest.mark.parametrize("warmup", [0, 1])
    def test_one_call_equals_scalar_draws(self, n, k, warmup):
        scalar = derive_rng(11, "batched-integers")
        batched = derive_rng(11, "batched-integers")
        for rng in (scalar, batched):
            # an odd number of 32-bit draws leaves half a word buffered
            for _ in range(warmup):
                rng.integers(0, 5)
        values = [int(scalar.integers(0, n)) for _ in range(k)]
        assert batched.integers(0, n, size=k).tolist() == values
        assert batched.bit_generator.state == scalar.bit_generator.state


class TestBatchedDoubles:
    """The organic driver decides a checked inbox's response candidates
    with one ``random(n)`` call on the ``reciprocity`` stream, where the
    per-notification loop makes ``n`` scalar ``random()`` draws. That is
    exact only while NumPy gives both the same values and the same
    generator state."""

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 1000])
    @pytest.mark.parametrize("warmup", [0, 1])
    def test_one_call_equals_scalar_draws(self, n, warmup):
        scalar = derive_rng(13, "batched-doubles")
        batched = derive_rng(13, "batched-doubles")
        for rng in (scalar, batched):
            # a buffered half-word from a 32-bit draw must not leak in
            for _ in range(warmup):
                rng.integers(0, 5)
        values = [float(scalar.random()) for _ in range(n)]
        assert batched.random(n).tolist() == values
        assert batched.bit_generator.state == scalar.bit_generator.state


class TestSeedSequenceFactory:
    def test_get_memoizes(self):
        factory = SeedSequenceFactory(3)
        a = factory.get("organic")
        b = factory.get("organic")
        assert a is b

    def test_fresh_is_not_memoized(self):
        factory = SeedSequenceFactory(3)
        a = factory.fresh("organic")
        b = factory.fresh("organic")
        assert a is not b
        # ... but both start from the same derived state
        assert a.random() == b.random()

    def test_fresh_does_not_disturb_memoized_stream(self):
        factory = SeedSequenceFactory(3)
        stream = factory.get("svc")
        first = stream.random()
        factory.fresh("svc").random()
        factory_b = SeedSequenceFactory(3)
        stream_b = factory_b.get("svc")
        assert stream_b.random() == first

    def test_spawn_namespaces(self):
        factory = SeedSequenceFactory(3)
        child_a = factory.spawn("a")
        child_b = factory.spawn("b")
        assert child_a.get("x").random() != child_b.get("x").random()

    def test_spawn_deterministic(self):
        a = SeedSequenceFactory(3).spawn("ns").get("x").random()
        b = SeedSequenceFactory(3).spawn("ns").get("x").random()
        assert a == b
