"""Tests for the domain registry, zone, resolver and stub cache."""

import pytest

from repro.dnsinfra import (DomainRegistry, RecursiveResolver,
                            ROTATION_PERIOD_NS, ROTATION_POOL_SIZE,
                            StubCache, Zone)
from repro.net import DnsRecord, Ipv4Address
from repro.sim import hours, seconds


@pytest.fixture(scope="module")
def registry():
    return DomainRegistry()


@pytest.fixture(scope="module")
def zone(registry):
    return Zone(registry)


class TestCatalog:
    def test_lg_uk_has_rotating_pool(self, registry):
        names = [r.name for r in registry.domains_for("lg", "uk")]
        pool = [n for n in names if n.startswith("eu-acr")]
        assert len(pool) == ROTATION_POOL_SIZE
        assert "eu-acr1.alphonso.tv" in pool

    def test_lg_us_uses_tkacr(self, registry):
        names = [r.name for r in registry.domains_for("lg", "us")]
        assert any(n.startswith("tkacr") for n in names)
        assert not any(n.startswith("eu-acr") for n in names)

    def test_samsung_uk_domain_set(self, registry):
        """The four UK Samsung ACR domains from §4.1."""
        names = {r.name for r in registry.domains_for("samsung", "uk")
                 if r.role.startswith("acr")}
        assert "acr-eu-prd.samsungcloud.tv" in names
        assert "acr0.samsungcloudsolution.com" in names
        assert "log-config.samsungacr.com" in names
        assert "log-ingestion-eu.samsungacr.com" in names

    def test_samsung_us_omits_cloudsolution(self, registry):
        """§4.3: the US set omits the samsungcloudsolution domain."""
        names = {r.name for r in registry.domains_for("samsung", "us")
                 if r.role.startswith("acr")}
        assert "acr-us-prd.samsungcloud.tv" in names
        assert "log-ingestion.samsungacr.com" in names
        assert not any("samsungcloudsolution" in n for n in names)

    def test_catalog_includes_non_acr_chatter(self, registry):
        roles = {r.role for r in registry.domains_for("samsung", "uk")}
        assert "ads" in roles and "platform" in roles and "ott" in roles

    def test_unknown_vendor_rejected(self, registry):
        with pytest.raises(KeyError):
            registry.domains_for("philips", "uk")

    def test_every_domain_has_server(self, registry):
        for name in registry.all_names():
            server = registry.server(name)
            assert server.address is not None

    def test_shared_domain_single_allocation(self, registry):
        # log-config appears in both UK and US catalogs; one server.
        uk = registry.server("log-config.samsungacr.com").address
        us = registry.server("log-config.samsungacr.com").address
        assert uk == us

    def test_acr_servers_in_correct_cities(self, registry):
        assert registry.server("eu-acr1.alphonso.tv").city.name == \
            "Amsterdam"
        assert registry.server("acr-eu-prd.samsungcloud.tv").city.name == \
            "London"
        assert registry.server("log-config.samsungacr.com").city.name == \
            "New York"
        assert registry.server("tkacr1.alphonso.tv").city.country == "US"
        assert registry.server("acr-us-prd.samsungcloud.tv").city.country \
            == "US"


class TestRotation:
    def test_rotation_stable_within_window(self, registry):
        a = registry.rotating_acr_domain("lg", "uk", 0, seed=3)
        b = registry.rotating_acr_domain("lg", "uk",
                                         ROTATION_PERIOD_NS - 1, seed=3)
        assert a == b

    def test_rotation_changes_across_windows(self, registry):
        domains = {registry.rotating_acr_domain(
            "lg", "uk", i * ROTATION_PERIOD_NS, seed=3) for i in range(20)}
        assert len(domains) > 1

    def test_rotation_in_catalog(self, registry):
        name = registry.rotating_acr_domain("lg", "us", hours(7), seed=1)
        assert registry.knows(name)

    def test_samsung_not_rotating(self, registry):
        with pytest.raises(ValueError):
            registry.rotating_acr_domain("samsung", "uk", 0)

    def test_fingerprint_domain_per_vendor(self, registry):
        assert registry.fingerprint_domain("samsung", "uk", 0) == \
            "acr-eu-prd.samsungcloud.tv"
        assert registry.fingerprint_domain(
            "lg", "uk", 0, seed=2).endswith("alphonso.tv")


class TestZone:
    def test_a_lookup(self, zone):
        records = zone.lookup_a("acr-eu-prd.samsungcloud.tv")
        assert records and records[0].rtype == 1

    def test_nxdomain(self, zone):
        assert zone.lookup_a("does.not.exist") is None

    def test_ptr_for_acr_server(self, zone, registry):
        address = registry.server("eu-acr1.alphonso.tv").address
        ptr = zone.lookup_ptr(address)
        assert ptr is not None
        assert "ams" in ptr.target_name  # geographic hint

    def test_acr_ttl_short(self, zone):
        records = zone.lookup_a("eu-acr1.alphonso.tv")
        assert records[0].ttl == 60

    def test_platform_ttl_default(self, zone):
        records = zone.lookup_a("time.samsungcloudsolution.com")
        assert records[0].ttl == 300

    def test_add_local_record(self, registry):
        local_zone = Zone(registry)
        local_zone.add_a("ap.testbed.local",
                         Ipv4Address.parse("192.168.1.1"))
        assert local_zone.lookup_a("ap.testbed.local")


class TestRecursiveResolver:
    def test_cache_hit_within_ttl(self, zone):
        resolver = RecursiveResolver(zone)
        first = resolver.resolve("eu-acr1.alphonso.tv", 0)
        second = resolver.resolve("eu-acr1.alphonso.tv", seconds(30))
        assert not first.from_cache
        assert second.from_cache
        assert resolver.cache_hits == 1

    def test_cache_expires_after_ttl(self, zone):
        resolver = RecursiveResolver(zone)
        resolver.resolve("eu-acr1.alphonso.tv", 0)
        later = resolver.resolve("eu-acr1.alphonso.tv", seconds(61))
        assert not later.from_cache

    def test_negative_cache(self, zone):
        resolver = RecursiveResolver(zone)
        first = resolver.resolve("ghost.example", 0)
        second = resolver.resolve("ghost.example", seconds(1))
        assert first.nxdomain and second.nxdomain
        assert second.from_cache

    def test_ptr_resolution(self, zone, registry):
        resolver = RecursiveResolver(zone)
        address = registry.server("log-config.samsungacr.com").address
        name = resolver.resolve_ptr(address, 0)
        assert name is not None and "nyc" in name


    def test_lookup_is_case_insensitive(self, zone):
        resolver = RecursiveResolver(zone)
        first = resolver.resolve("EU-ACR1.Alphonso.TV", 0)
        second = resolver.resolve("eu-acr1.alphonso.tv", seconds(1))
        assert first.name == "eu-acr1.alphonso.tv"
        assert second.from_cache
        assert second.addresses == first.addresses

    def test_negative_cache_expires_after_a_minute(self, zone):
        resolver = RecursiveResolver(zone)
        resolver.resolve("ghost.example", 0)
        later = resolver.resolve("ghost.example", seconds(60))
        assert later.nxdomain and not later.from_cache
        assert (resolver.queries, resolver.cache_hits) == (2, 0)

    def test_addresses_are_the_zone_a_records(self, zone):
        result = RecursiveResolver(zone).resolve(
            "acr-eu-prd.samsungcloud.tv", 0)
        assert result.addresses == [
            r.address for r in zone.lookup_a("acr-eu-prd.samsungcloud.tv")]
        assert result.addresses

    def test_result_repr_names_state_and_origin(self, zone):
        resolver = RecursiveResolver(zone)
        assert repr(resolver.resolve("ghost.example", 0)) == \
            "ResolveResult('ghost.example', NXDOMAIN, authoritative)"
        resolver.resolve("eu-acr1.alphonso.tv", 0)
        hit = resolver.resolve("eu-acr1.alphonso.tv", 1)
        assert repr(hit) == (f"ResolveResult('eu-acr1.alphonso.tv', "
                             f"{len(hit.records)} records, cache)")


class TestStubCache:
    def test_miss_then_hit(self):
        cache = StubCache()
        assert cache.lookup("a.b", 0) is None
        cache.store("a.b", [DnsRecord.a(
            "a.b", Ipv4Address.parse("1.2.3.4"), ttl=60)], 0)
        assert cache.lookup("a.b", seconds(59)) is not None
        assert cache.lookup("a.b", seconds(61)) is None

    def test_flush_on_power_cycle(self):
        cache = StubCache()
        cache.store("a.b", [DnsRecord.a(
            "a.b", Ipv4Address.parse("1.2.3.4"), ttl=600)], 0)
        cache.flush()
        assert cache.lookup("a.b", 1) is None
        assert len(cache) == 0

    def test_empty_records_not_stored(self):
        cache = StubCache()
        cache.store("a.b", [], 0)
        assert len(cache) == 0

    def test_lookup_is_case_insensitive(self):
        cache = StubCache()
        cache.store("A.B", [DnsRecord.a(
            "a.b", Ipv4Address.parse("1.2.3.4"), ttl=60)], 0)
        assert cache.lookup("a.B", 1) is not None

    def test_shortest_ttl_bounds_the_entry(self):
        cache = StubCache()
        cache.store("a.b", [
            DnsRecord.a("a.b", Ipv4Address.parse("1.2.3.4"), ttl=600),
            DnsRecord.a("a.b", Ipv4Address.parse("1.2.3.5"), ttl=30)], 0)
        assert len(cache.lookup("a.b", seconds(29))) == 2
        assert cache.lookup("a.b", seconds(30)) is None
        assert len(cache) == 0
