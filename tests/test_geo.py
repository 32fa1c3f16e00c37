"""Tests for the geolocation substrate: IP space, GeoIP, probes,
traceroute, IPmap arbitration, DPF list, and the full audit workflow."""

import pytest

from repro.dnsinfra import DomainRegistry, Zone
from repro.geo import (AIRPORT_CODES, CITIES, DpfList, GeolocationAudit,
                       IpSpace, ProbeMesh, ReverseDnsEngine, TracerouteEngine,
                       build_ip2location, build_maxmind, haversine_km,
                       min_rtt_ms)
from repro.sim import RngRegistry


@pytest.fixture(scope="module")
def registry():
    return DomainRegistry()


@pytest.fixture(scope="module")
def audit(registry):
    zone = Zone(registry)

    def ptr_lookup(address):
        record = zone.lookup_ptr(address)
        return record.target_name if record else None

    return GeolocationAudit(registry.ipspace, RngRegistry(11),
                            ptr_lookup=ptr_lookup)


class TestLocations:
    def test_haversine_london_amsterdam(self):
        km = haversine_km(CITIES["london"], CITIES["amsterdam"])
        assert 330 < km < 380

    def test_haversine_symmetry(self):
        a, b = CITIES["london"], CITIES["new_york"]
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))

    def test_min_rtt_transatlantic(self):
        rtt = min_rtt_ms(CITIES["london"], CITIES["new_york"])
        assert 60 < rtt < 100  # physically-grounded bound

    def test_airport_mapping(self):
        assert CITIES[AIRPORT_CODES["ams"]].name == "Amsterdam"
        assert CITIES[AIRPORT_CODES["lhr"]].name == "London"
        assert "xxx" not in AIRPORT_CODES


class TestIpSpace:
    def test_allocation_is_stable_and_unique(self):
        space = IpSpace()
        a = space.allocate("alphonso", "amsterdam")
        b = space.allocate("alphonso", "amsterdam")
        assert a.address != b.address
        assert space.lookup(a.address) is a

    def test_lookup_gives_the_city_or_none(self):
        space = IpSpace()
        record = space.allocate("samsung", "london")
        assert space.lookup(record.address).city.name == "London"
        assert space.lookup(record.address + 100) is None

    def test_ptr_contains_geo_hint(self):
        space = IpSpace()
        record = space.allocate("samsung", "new_york", "acr")
        assert "nyc" in record.ptr_name

    def test_unknown_block(self):
        with pytest.raises(KeyError):
            IpSpace().allocate("nosuch", "london")


class TestGeoIpDatabases:
    def test_maxmind_mostly_correct(self, registry):
        db = build_maxmind(registry.ipspace)
        server = registry.server("acr-eu-prd.samsungcloud.tv")
        assert db.lookup(server.address).name == "London"

    def test_maxmind_injected_error(self, registry):
        """MaxMind mislocates Samsung's New York block to Amsterdam."""
        db = build_maxmind(registry.ipspace)
        server = registry.server("log-config.samsungacr.com")
        assert db.lookup(server.address).name == "Amsterdam"

    def test_ip2location_injected_error(self, registry):
        """IP2Location mislocates Alphonso Amsterdam to Frankfurt."""
        db = build_ip2location(registry.ipspace)
        server = registry.server("eu-acr1.alphonso.tv")
        assert db.lookup(server.address).name == "Frankfurt"

    def test_databases_disagree_on_log_config(self, registry):
        mm = build_maxmind(registry.ipspace)
        ip2 = build_ip2location(registry.ipspace)
        address = registry.server("log-config.samsungacr.com").address
        assert mm.lookup(address) != ip2.lookup(address)

    def test_unmapped_address_returns_none(self, registry):
        from repro.net import Ipv4Address
        db = build_maxmind(registry.ipspace)
        assert db.lookup(Ipv4Address.parse("9.9.9.9")) is None


class TestProbesAndTraceroute:
    def test_rtt_respects_physics(self):
        mesh = ProbeMesh(RngRegistry(5))
        london_probe = next(p for p in mesh.probes
                            if p.city.name == "London")
        rtt = mesh.measure_rtt_ms(london_probe, CITIES["new_york"])
        assert rtt >= min_rtt_ms(CITIES["london"], CITIES["new_york"])

    def test_nearest_probe_has_lowest_rtt(self):
        mesh = ProbeMesh(RngRegistry(5))
        measurements = mesh.measurements_to(CITIES["amsterdam"])
        best = min(measurements, key=measurements.get)
        assert mesh.probe(best).city.name in ("Amsterdam", "London",
                                              "Frankfurt")

    def test_traceroute_reaches_target(self, registry):
        engine = TracerouteEngine(registry.ipspace, RngRegistry(5))
        target = registry.server("log-config.samsungacr.com").address
        result = engine.trace("uk", target)
        assert result.hops[-1].address == target
        rtts = [hop.rtt_ms for hop in result.hops]
        assert rtts == sorted(rtts)  # cumulative RTTs increase

    def test_traceroute_transit_hints(self, registry):
        engine = TracerouteEngine(registry.ipspace, RngRegistry(5))
        target = registry.server("log-config.samsungacr.com").address
        result = engine.trace("uk", target)
        joined = " ".join(hop.ptr_name for hop in result.hops
                          if hop.ptr_name)
        assert "lhr" in joined and "nyc" in joined

    def test_unknown_vantage_rejected(self, registry):
        engine = TracerouteEngine(registry.ipspace, RngRegistry(5))
        target = registry.server("eu-acr1.alphonso.tv").address
        with pytest.raises(ValueError):
            engine.trace("fr", target)


class TestIpMapArbitration:
    def test_rdns_engine_reads_hint(self, registry, audit):
        address = registry.server("log-config.samsungacr.com").address
        verdict = audit.ipmap.rdns_engine.locate(address)
        assert verdict.city.name == "New York"

    def test_rdns_engine_no_ptr(self, audit):
        from repro.net import Ipv4Address
        engine = ReverseDnsEngine(lambda a: None)
        assert engine.locate(Ipv4Address.parse("9.9.9.9")).city is None

    def test_latency_engine_close_to_truth(self, registry, audit):
        address = registry.server("eu-acr1.alphonso.tv").address
        verdict = audit.ipmap.latency_engine.locate(address)
        # Latency pins to the right metro area (AMS or a near neighbour).
        assert verdict.city.name in ("Amsterdam", "London", "Frankfurt")

    def test_consolidated_verdict(self, registry, audit):
        address = registry.server("log-config.samsungacr.com").address
        verdict = audit.ipmap.locate(address)
        assert verdict.city.name == "New York"


class TestFullAuditWorkflow:
    @pytest.mark.parametrize("domain,expected_city", [
        ("eu-acr1.alphonso.tv", "Amsterdam"),
        ("acr-eu-prd.samsungcloud.tv", "London"),
        ("log-ingestion-eu.samsungacr.com", "London"),
        ("acr0.samsungcloudsolution.com", "Amsterdam"),
        ("log-config.samsungacr.com", "New York"),
    ])
    def test_uk_findings_match_paper(self, registry, audit, domain,
                                     expected_city):
        """§4.1: the UK endpoint locations, including the US-located
        log-config endpoint that raises the cross-border concern."""
        address = registry.server(domain).address
        finding = audit.locate(address, "uk", domain)
        assert finding.city.name == expected_city

    @pytest.mark.parametrize("domain", [
        "tkacr1.alphonso.tv",
        "acr-us-prd.samsungcloud.tv",
        "log-ingestion.samsungacr.com",
        "log-config.samsungacr.com",
    ])
    def test_us_endpoints_in_us(self, registry, audit, domain):
        """§4.3: every US ACR endpoint is physically in the US."""
        address = registry.server(domain).address
        finding = audit.locate(address, "us_west", domain)
        assert finding.country == "US"

    def test_disagreement_triggers_ipmap(self, registry, audit):
        address = registry.server("log-config.samsungacr.com").address
        finding = audit.locate(address, "uk")
        assert not finding.databases_agree
        assert finding.ipmap_used
        assert finding.traceroute is not None

    def test_agreement_skips_ipmap(self, registry, audit):
        address = registry.server("acr-eu-prd.samsungcloud.tv").address
        finding = audit.locate(address, "uk")
        assert finding.databases_agree
        assert not finding.ipmap_used


class TestDpf:
    def test_both_vendors_on_bridge(self):
        dpf = DpfList()
        assert dpf.allows_uk_us_transfer("samsung")
        assert dpf.allows_uk_us_transfer("alphonso")

    def test_non_participant(self):
        dpf = DpfList()
        assert not dpf.allows_uk_us_transfer("exampletrack")
        assert not dpf.allows_uk_us_transfer("unknown-co")

