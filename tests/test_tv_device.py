"""Integration tests for the TV device models on the event loop."""

import pytest

from capture_tap import Tap
from packet_oracle import decode_all
from repro.dnsinfra import DomainRegistry, RecursiveResolver, Zone
from repro.media import OttApp, Tuner
from repro.net import HostStack, Ipv4Address, mac_from_seed
from repro.net.link import LatencyModel
from repro.sim import EventLoop, RngRegistry, minutes, seconds
from repro.testbed import linear_channel, media_library
from repro.tv import LgTv, RemoteControl, SamsungTv, SmartPlug, vendors
from repro.tv.services import services_for

TV_IP = Ipv4Address.parse("192.168.1.50")
AP_IP = Ipv4Address.parse("192.168.1.1")


def _make_tv(tv_class, country="uk", seed=3):
    rng = RngRegistry(seed)
    loop = EventLoop()
    registry = DomainRegistry()
    zone = Zone(registry)
    resolver = RecursiveResolver(zone)
    latency = LatencyModel("uk" if country == "uk" else "us_west", rng)
    latency.register_server(AP_IP, "london" if country == "uk"
                            else "us_west")
    for record in registry.ipspace.all_servers():
        latency.register_server(record.address, record.city.region_key)
    captured = Tap()
    stack = HostStack(mac_from_seed(1), TV_IP, mac_from_seed(2),
                      latency, rng, captured.log)
    tv = tv_class(country=country, loop=loop, rng=rng, stack=stack,
                  resolver=resolver, resolver_ip=AP_IP, registry=registry,
                  backend=None, seed=seed)
    return tv, loop, captured


class TestPowerCycle:
    def test_boot_defaults_to_home_screen(self):
        tv, loop, __ = _make_tv(LgTv)
        tv.power_on()
        assert tv.current_source is not None
        assert tv.current_source.source_type.value == "home"

    def test_double_power_on_rejected(self):
        tv, __, __ = _make_tv(LgTv)
        tv.power_on()
        with pytest.raises(RuntimeError):
            tv.power_on()

    def test_power_off_stops_traffic(self):
        tv, loop, captured = _make_tv(LgTv)
        tv.power_on()
        loop.run_until(minutes(2))
        tv.power_off()
        teardown_cutoff = len(captured)
        loop.run_until(minutes(10))
        # Nothing but (already-emitted) teardown after power off.
        assert len(captured) == teardown_cutoff

    def test_power_off_idempotent(self):
        tv, __, __ = _make_tv(LgTv)
        tv.power_on()
        tv.power_off()
        tv.power_off()  # no error

    def test_boot_dns_burst_early(self):
        tv, loop, captured = _make_tv(LgTv)
        tv.power_on()
        loop.run_until(minutes(2))
        dns = [p for p in decode_all(sorted(captured,
                                            key=lambda x: x.timestamp))
               if p.dns is not None]
        assert dns, "no DNS traffic at boot"
        assert dns[0].timestamp < seconds(10)


class TestLgBehaviour:
    def test_single_rotating_acr_domain(self):
        tv, loop, captured = _make_tv(LgTv)
        tv.select_source(Tuner(linear_channel("uk", 0)))
        tv.power_on()
        loop.run_until(minutes(3))
        dns_names = {q.name for p in decode_all(captured) if p.dns
                     for q in p.dns.questions}
        acr_names = {n for n in dns_names if "acr" in n}
        assert len(acr_names) == 1
        assert next(iter(acr_names)).startswith("eu-acr")

    def test_batches_every_15s(self):
        tv, loop, __ = _make_tv(LgTv)
        tv.select_source(Tuner(linear_channel("uk", 0)))
        tv.power_on()
        loop.run_until(minutes(3))
        # 3 minutes = 12 batch ticks (none before power-on).
        total = tv.acr_client.stats.full_batches + \
            tv.acr_client.stats.beacons
        assert total == 12


class TestSamsungBehaviour:
    def test_uk_contacts_four_acr_domains(self):
        tv, loop, captured = _make_tv(SamsungTv)
        tv.select_source(Tuner(linear_channel("uk", 0)))
        tv.power_on()
        loop.run_until(minutes(7))
        dns_names = {q.name for p in decode_all(captured) if p.dns
                     for q in p.dns.questions}
        acr_names = {n for n in dns_names if "acr" in n}
        assert acr_names == {"acr-eu-prd.samsungcloud.tv",
                             "acr0.samsungcloudsolution.com",
                             "log-config.samsungacr.com",
                             "log-ingestion-eu.samsungacr.com"}

    def test_us_has_no_keepalive_channel(self):
        tv, loop, captured = _make_tv(SamsungTv, country="us")
        tv.power_on()
        loop.run_until(minutes(7))
        dns_names = {q.name for p in decode_all(captured) if p.dns
                     for q in p.dns.questions}
        assert not any("samsungcloudsolution" in n and "acr" in n
                       for n in dns_names)
        assert not tv.has_keepalive_channel

    def test_opted_out_no_acr_domains(self):
        tv, loop, captured = _make_tv(SamsungTv)
        tv.settings.opt_out_all()
        tv.select_source(Tuner(linear_channel("uk", 0)))
        tv.power_on()
        loop.run_until(minutes(7))
        dns_names = {q.name for p in decode_all(captured) if p.dns
                     for q in p.dns.questions}
        assert not any("acr" in n for n in dns_names)

    def test_ingestion_domain_by_country(self):
        uk, __, __ = _make_tv(SamsungTv, country="uk")
        us, __, __ = _make_tv(SamsungTv, country="us")
        assert uk.log_ingestion_domain == "log-ingestion-eu.samsungacr.com"
        assert us.log_ingestion_domain == "log-ingestion.samsungacr.com"


class TestSourceTraffic:
    def test_ott_streaming_traffic_present(self):
        tv, loop, captured = _make_tv(SamsungTv)
        library = media_library("uk", 0)
        tv.power_on()
        tv.select_source(OttApp("netflix", [library.movies[0]]))
        loop.run_until(minutes(2))
        dns_names = {q.name for p in decode_all(captured) if p.dns
                     for q in p.dns.questions}
        assert "api.netflix.com" in dns_names


class TestPeripherals:
    def test_smart_plug_schedule(self):
        tv, loop, __ = _make_tv(LgTv)
        plug = SmartPlug(loop, tv)
        plug.power_on_at(seconds(2))
        plug.power_off_at(minutes(1))
        loop.run_until(minutes(2))
        assert [kind for __, kind in plug.transitions] == ["on", "off"]
        assert not tv.powered

    def test_remote_actions_logged(self):
        tv, loop, __ = _make_tv(LgTv)
        remote = RemoteControl(loop, tv)
        tv.power_on()
        remote.select_source_at(seconds(5),
                                Tuner(linear_channel("uk", 0)))
        loop.run_until(seconds(30))
        assert remote.action_log == [(seconds(5), "select-source:tuner")]


class TestServicesCatalog:
    def test_vendor_services_exist(self):
        assert services_for("lg", "uk")
        assert services_for("samsung", "us")
        with pytest.raises(ValueError):
            services_for("philips", "uk")

    def test_every_vendor_serves_both_countries(self):
        for profile in vendors.catalog_profiles():
            assert profile.countries == ("uk", "us")
            assert set(profile.acr_profiles) >= {"uk", "us"}

    def test_ads_services_gated(self):
        specs = services_for("samsung", "uk")
        gates = {s.name: s.gate for s in specs}
        assert gates["ads"] == "ads"
        assert gates["time-sync"] is None

    def test_no_service_domain_contains_acr(self):
        """Background chatter must not pollute the 'acr' heuristic."""
        for vendor in ("lg", "samsung"):
            for country in ("uk", "us"):
                for spec in services_for(vendor, country):
                    assert "acr" not in spec.domain
