"""Tests for repro.netsim.ipspace."""

import pytest

from repro.netsim.ipspace import IPAddressSpace, Prefix, format_ipv4


class TestFormatParse:
    def test_format_known_value(self):
        assert format_ipv4(0x0A000001) == "10.0.0.1"

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            format_ipv4(-1)
        with pytest.raises(ValueError):
            format_ipv4(1 << 32)


class TestPrefix:
    def test_size(self):
        assert Prefix(0x0A000000, 24).size == 256
        assert Prefix(0x0A000000, 32).size == 1

    def test_contains(self):
        prefix = Prefix(0x0A000000, 24)
        assert prefix.contains(0x0A000000)
        assert prefix.contains(0x0A0000FF)
        assert not prefix.contains(0x0A000100)

    def test_misaligned_base_raises(self):
        with pytest.raises(ValueError):
            Prefix(0x0A000001, 24)

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)

    def test_str(self):
        assert str(Prefix(0x0A000000, 24)) == "10.0.0.0/24"


class TestIPAddressSpace:
    def test_sequential_allocation(self):
        space = IPAddressSpace()
        prefix = Prefix(0x0A000000, 30)
        space.add_prefix(prefix)
        addresses = [space.allocate(prefix) for _ in range(4)]
        assert addresses == [0x0A000000, 0x0A000001, 0x0A000002, 0x0A000003]

    def test_exhaustion(self):
        space = IPAddressSpace()
        prefix = Prefix(0x0A000000, 31)
        space.add_prefix(prefix)
        space.allocate(prefix)
        space.allocate(prefix)
        with pytest.raises(RuntimeError):
            space.allocate(prefix)

    def test_overlap_rejected(self):
        space = IPAddressSpace()
        space.add_prefix(Prefix(0x0A000000, 24))
        with pytest.raises(ValueError):
            space.add_prefix(Prefix(0x0A000000, 26))
        with pytest.raises(ValueError):
            space.add_prefix(Prefix(0x0A000000, 16))

    def test_owner_prefix(self):
        space = IPAddressSpace()
        a = Prefix(0x0A000000, 24)
        b = Prefix(0x0B000000, 24)
        space.add_prefix(a)
        space.add_prefix(b)
        assert space.owner_prefix(0x0A000005) is a
        assert space.owner_prefix(0x0B0000FE) is b

    def test_owner_prefix_unknown_raises(self):
        space = IPAddressSpace()
        with pytest.raises(KeyError):
            space.owner_prefix(1)

    def test_unknown_prefix_allocation_raises(self):
        space = IPAddressSpace()
        with pytest.raises(KeyError):
            space.allocate(Prefix(0x0A000000, 24))
