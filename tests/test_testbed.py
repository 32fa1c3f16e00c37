"""Tests for experiment vocabulary, runner and validation."""

import pytest

from packet_oracle import dump_bytes, iter_records, load_bytes
from repro.net.ip import PROTO_TCP, PROTO_UDP
from repro.sim import hours, minutes
from repro.experiments.grid import enumerate_cells
from repro.testbed import (AccessPoint, Country, ExperimentSpec, Phase,
                           Scenario, Vendor, build_source, paper_vendors,
                           run_experiment, validate)
from repro.dnsinfra import DomainRegistry, Zone
from repro.sim import RngRegistry

SHORT = minutes(6)


class TestVocabulary:
    def test_full_matrix_size(self):
        assert len(enumerate_cells()) == 6 * 4 * 2 * len(Vendor)
        assert len(paper_vendors()) == 2

    def test_phase_semantics(self):
        assert Phase.LIN_OIN.logged_in and Phase.LIN_OIN.opted_in
        assert not Phase.LOUT_OOUT.logged_in
        assert not Phase.LOUT_OOUT.opted_in
        assert Phase.LOUT_OIN.opted_in and not Phase.LOUT_OIN.logged_in

    def test_spec_label(self):
        spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.HDMI,
                              Phase.LIN_OOUT)
        assert spec.label == "lg-uk-hdmi-LIn-OOut"

    def test_spec_equality_and_hash(self):
        a = ExperimentSpec(Vendor.LG, Country.UK, Scenario.HDMI,
                           Phase.LIN_OIN)
        b = ExperimentSpec(Vendor.LG, Country.UK, Scenario.HDMI,
                           Phase.LIN_OIN)
        assert a == b and hash(a) == hash(b)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(Vendor.LG, Country.UK, Scenario.IDLE,
                           Phase.LIN_OIN, duration_ns=1000)

    def test_scenario_sweep(self):
        sweep = enumerate_cells(["vendor=samsung", "country=us",
                                 "phase=LIn-OIn"])
        assert len(sweep) == 6
        assert {s.scenario for s in sweep} == set(Scenario)

    def test_phase_pair(self):
        pair = enumerate_cells(["vendor=lg", "country=uk",
                                "scenario=linear",
                                "phase=LIn-OIn,LIn-OOut"])
        assert [s.phase for s in pair] == [Phase.LIN_OIN, Phase.LIN_OOUT]

    def test_country_vantage(self):
        assert Country.UK.vantage == "uk"
        assert Country.US.vantage == "us_west"


class TestBuildSource:
    @pytest.mark.parametrize("scenario,expected", [
        (Scenario.IDLE, "home"),
        (Scenario.LINEAR, "tuner"),
        (Scenario.FAST, "fast"),
        (Scenario.OTT, "ott"),
        (Scenario.HDMI, "hdmi"),
        (Scenario.SCREEN_CAST, "cast"),
    ])
    def test_source_per_scenario(self, scenario, expected):
        spec = ExperimentSpec(Vendor.LG, Country.UK, scenario,
                              Phase.LIN_OIN, duration_ns=SHORT)
        assert build_source(spec, 0).source_type.value == expected


class TestRunner:
    def test_short_run_produces_valid_capture(self):
        spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.LINEAR,
                              Phase.LIN_OIN, duration_ns=SHORT)
        result = run_experiment(spec, seed=3)
        report = validate(result)
        assert report.ok, report.failures
        assert result.packet_count > 100
        packets = load_bytes(result.pcap_bytes)
        assert len(packets) == result.packet_count

    def test_determinism(self):
        spec = ExperimentSpec(Vendor.SAMSUNG, Country.UK, Scenario.IDLE,
                              Phase.LIN_OIN, duration_ns=SHORT)
        a = run_experiment(spec, seed=3)
        b = run_experiment(spec, seed=3)
        assert a.pcap_bytes == b.pcap_bytes

    def test_different_seed_differs(self):
        spec = ExperimentSpec(Vendor.SAMSUNG, Country.UK, Scenario.IDLE,
                              Phase.LIN_OIN, duration_ns=SHORT)
        a = run_experiment(spec, seed=3)
        b = run_experiment(spec, seed=4)
        assert a.pcap_bytes != b.pcap_bytes

    def test_optout_run_is_quiet(self):
        spec = ExperimentSpec(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                              Phase.LOUT_OOUT, duration_ns=SHORT)
        result = run_experiment(spec, seed=3)
        assert result.acr_stats.full_batches == 0
        assert result.acr_stats.disabled_slots > 0

    def test_full_hour_duration_default(self):
        spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.IDLE,
                              Phase.LIN_OIN)
        assert spec.duration_ns == hours(1)


class TestAccessPoint:
    """The AP's capture log: gated by start/stop, handed over as pcap
    bytes in capture-time order, and empty afterwards."""

    @staticmethod
    def _ap():
        return AccessPoint("uk", Zone(DomainRegistry()), RngRegistry(1))

    @staticmethod
    def _records(raw):
        """(timestamp, IPv4 id) per record."""
        return [(ts, int.from_bytes(raw[offset + 18:offset + 20], "big"))
                for ts, offset, __, __ in iter_records(raw)]

    @staticmethod
    def _flows(ap):
        """A TCP and a UDP flow on the AP's log."""
        return [ap.log.flow(ap.mac, ap.mac, ap.lan_ip, ap.tv_ip, 1, 2, 64,
                            protocol) for protocol in (PROTO_TCP, PROTO_UDP)]

    def test_capture_gating(self):
        ap = self._ap()
        tcp, udp = self._flows(ap)
        ap.log.udp(1_000, udp, 1, b"x")
        ap.log.tcp(1_000, tcp, 7, 1, 2, 0x10)
        assert ap.packet_count == 0  # not capturing yet
        ap.start_capture()
        ap.log.udp(2_000, udp, 2, b"y")
        assert ap.packet_count == 1
        # Stopping hands the capture over and empties the log.
        raw, count = ap.stop_capture()
        assert count == 1
        assert self._records(raw) == [(2_000, 2)]
        assert len(ap.log) == 0
        ap.log.udp(3_000, udp, 3, b"z")
        ap.log.tcp(3_000, tcp, 8, 1, 2, 0x10)
        assert ap.packet_count == 0
        assert ap.stop_capture() == (dump_bytes([]), 0)

    def test_packets_sorted_ties_in_emission_order(self):
        ap = self._ap()
        tcp, udp = self._flows(ap)
        ap.start_capture()
        ap.log.udp(5_000, udp, 2, b"b")
        ap.log.udp(1_000, udp, 1, b"a")
        ap.log.tcp(5_000, tcp, 7, 1, 2, 0x10)
        ap.log.udp(5_000, udp, 3, b"c")
        ap.log.udp(1_000, udp, 4, b"d")
        raw, count = ap.stop_capture()
        assert count == 5 and len(ap.log) == 0
        assert self._records(raw) == [
            (1_000, 1), (1_000, 4), (5_000, 2), (5_000, 7), (5_000, 3)]
