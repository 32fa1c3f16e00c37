"""Tests for experiment vocabulary, runner, validation and campaign."""

import pytest

from repro.net import load_bytes
from repro.sim import hours, minutes
from repro.testbed import (AccessPoint, CampaignRunner, Country,
                           ExperimentSpec, Phase, Scenario, Vendor,
                           build_source, full_matrix, paper_vendors,
                           phase_pair, run_experiment, scenario_sweep,
                           validate)
from repro.dnsinfra import DomainRegistry, Zone
from repro.sim import RngRegistry

SHORT = minutes(6)


class TestVocabulary:
    def test_full_matrix_size(self):
        assert len(full_matrix()) == 6 * 4 * 2 * len(Vendor)
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
        sweep = scenario_sweep(Vendor.SAMSUNG, Country.US, Phase.LIN_OIN)
        assert len(sweep) == 6
        assert {s.scenario for s in sweep} == set(Scenario)

    def test_phase_pair(self):
        pair = phase_pair(Vendor.LG, Country.UK, Scenario.LINEAR,
                          (Phase.LIN_OIN, Phase.LIN_OOUT))
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
    def test_capture_gating(self):
        registry = DomainRegistry()
        ap = AccessPoint("uk", Zone(registry), RngRegistry(1))
        from repro.net import CapturedPacket
        ap.capture(CapturedPacket(1, b"x" * 20))
        assert ap.packet_count == 0  # not capturing yet
        ap.start_capture()
        ap.capture(CapturedPacket(2, b"x" * 20))
        assert ap.packet_count == 1
        # Stopping hands the capture over and empties the tap.
        assert [p.timestamp for p in ap.stop_capture()] == [2]
        ap.capture(CapturedPacket(3, b"x" * 20))
        assert ap.packet_count == 0

    def test_packets_sorted(self):
        registry = DomainRegistry()
        ap = AccessPoint("uk", Zone(registry), RngRegistry(1))
        from repro.net import CapturedPacket
        ap.start_capture()
        ap.capture(CapturedPacket(5, b"b" * 20))
        ap.capture(CapturedPacket(1, b"a" * 20))
        assert [p.timestamp for p in ap.packets] == [1, 5]


class TestCampaign:
    def test_memoization(self):
        runner = CampaignRunner(seed=3)
        spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.IDLE,
                              Phase.LIN_OIN, duration_ns=SHORT)
        first = runner.run(spec)
        second = runner.run(spec)
        assert first is second
        assert runner.runs == 1
        assert runner.cache_hits == 1
