"""Tests for repro.netsim client endpoints, proxy pools, and the fabric."""

import pytest

from repro.netsim.asn import ASKind, ASNRegistry
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.netsim.fabric import NetworkFabric
from repro.netsim.proxies import ProxyPool
from repro.util import derive_rng


class TestDeviceFingerprint:
    def test_frozen(self):
        fingerprint = DeviceFingerprint("ios")
        with pytest.raises(Exception):
            fingerprint.family = "android"


class TestClientEndpoint:
    def test_str_contains_ip_and_asn(self):
        endpoint = ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android"))
        text = str(endpoint)
        assert "10.0.0.1" in text
        assert "AS64512" in text


class TestProxyPool:
    def test_build_creates_ases_and_endpoints(self):
        registry = ASNRegistry()
        rng = derive_rng(1, "proxy")
        pool = ProxyPool.build(
            registry, rng, as_count=5, exits_per_as=3, country_pool=["NLD", "DEU"],
            fingerprint=DeviceFingerprint("android", "aas-z"),
        )
        assert len(pool) == 15
        assert len(pool.distinct_asns()) == 5

    def test_round_robin_diversity(self):
        registry = ASNRegistry()
        rng = derive_rng(1, "proxy2")
        pool = ProxyPool.build(
            registry, rng, as_count=3, exits_per_as=1, country_pool=["NLD"],
            fingerprint=DeviceFingerprint("android"),
        )
        picks = [pool.next_endpoint().asn for _ in range(6)]
        assert picks[:3] == picks[3:]
        assert len(set(picks[:3])) == 3

    def test_empty_pool_rejected(self):
        registry = ASNRegistry()
        with pytest.raises(ValueError):
            ProxyPool(registry, [])

    def test_bad_params_rejected(self):
        registry = ASNRegistry()
        rng = derive_rng(1, "proxy3")
        with pytest.raises(ValueError):
            ProxyPool.build(registry, rng, 0, 1, ["NLD"], DeviceFingerprint("android"))


class TestNetworkFabric:
    def test_ensure_country_creates_consumer_ases(self):
        registry = ASNRegistry()
        fabric = NetworkFabric(registry, derive_rng(1, "fab"))
        fabric.ensure_country("BRA", residential=2, mobile=1)
        assert len(fabric._by_country_kind[("BRA", ASKind.RESIDENTIAL)]) == 2
        assert len(fabric._by_country_kind[("BRA", ASKind.MOBILE)]) == 1

    def test_home_endpoint_is_consumer(self):
        registry = ASNRegistry()
        fabric = NetworkFabric(registry, derive_rng(1, "fab2"))
        fabric.ensure_country("USA")
        endpoint = fabric.home_endpoint("USA", DeviceFingerprint("ios"))
        kind = registry.get(endpoint.asn).kind
        assert kind in (ASKind.RESIDENTIAL, ASKind.MOBILE)

    def test_home_endpoint_without_country_raises(self):
        registry = ASNRegistry()
        fabric = NetworkFabric(registry, derive_rng(1, "fab3"))
        with pytest.raises(KeyError):
            fabric.home_endpoint("ZZZ", DeviceFingerprint("ios"))

    def test_hosting_endpoint_find_or_create_by_name(self):
        registry = ASNRegistry()
        fabric = NetworkFabric(registry, derive_rng(1, "fab4"))
        a = fabric.hosting_endpoint("USA", DeviceFingerprint("android"), name="svc-a")
        b = fabric.hosting_endpoint("USA", DeviceFingerprint("android"), name="svc-a")
        c = fabric.hosting_endpoint("USA", DeviceFingerprint("android"), name="svc-b")
        assert a.asn == b.asn
        assert c.asn != a.asn

    def test_hosting_endpoint_unnamed_reuses_first(self):
        registry = ASNRegistry()
        fabric = NetworkFabric(registry, derive_rng(1, "fab5"))
        a = fabric.hosting_endpoint("GBR", DeviceFingerprint("android"))
        b = fabric.hosting_endpoint("GBR", DeviceFingerprint("android"))
        assert a.asn == b.asn

    def test_addresses_unique(self):
        registry = ASNRegistry()
        fabric = NetworkFabric(registry, derive_rng(1, "fab6"))
        fabric.ensure_country("USA")
        addresses = {fabric.home_endpoint("USA", DeviceFingerprint("ios")).address for _ in range(50)}
        assert len(addresses) == 50
