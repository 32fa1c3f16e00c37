"""Tests for the audit pipeline: DNS mapping, domain indexing, timelines,
volumes, CDFs, periodicity, the heuristic, and comparisons.

Session-scoped fixtures in conftest.py provide real one-hour captures.
"""

import numpy as np
import pytest

from repro.analysis import (AcrDomainAuditor, AuditPipeline, Blocklist,
                            CumulativeCurve, DnsMap, NetifyDirectory,
                            PhaseComparison, acr_volume_total,
                            analyze_periodicity, burst_times_ns,
                            cumulative_bytes, dominant_period_s,
                            median_step_interval_s,
                            no_new_acr_domains, normalize_rotating,
                            packets_per_ms, packets_per_second,
                            peak_ratio)
from repro.net import ColumnarCapture, ColumnarSlice, Ipv4Address
from repro.sim import minutes, seconds


class TestPipeline:
    def test_from_result_roundtrip(self, lg_uk_linear_result,
                                   lg_uk_linear_pipeline):
        assert lg_uk_linear_pipeline.tv_ip == Ipv4Address.parse(
            lg_uk_linear_result.tv_ip)
        assert len(lg_uk_linear_pipeline.packets) == \
            lg_uk_linear_result.packet_count

    def test_tv_ip_inference(self, lg_uk_linear_result):
        pipeline = AuditPipeline.from_pcap_bytes(
            lg_uk_linear_result.pcap_bytes)
        assert pipeline.tv_ip == Ipv4Address.parse(
            lg_uk_linear_result.tv_ip)

    def test_contacted_domains_no_lan(self, lg_uk_linear_pipeline):
        for domain in lg_uk_linear_pipeline.contacted_domains:
            assert not domain.startswith("lan:")
            assert not domain.startswith("unresolved:")

    def test_acr_candidates_substring(self, lg_uk_linear_pipeline):
        for domain in lg_uk_linear_pipeline.acr_candidate_domains():
            assert "acr" in domain

    def test_bytes_accounting_positive(self, lg_uk_linear_pipeline):
        domain = lg_uk_linear_pipeline.acr_candidate_domains()[0]
        assert lg_uk_linear_pipeline.bytes_for(domain) > 0
        assert lg_uk_linear_pipeline.bytes_sent_to(domain) < \
            lg_uk_linear_pipeline.bytes_for(domain)

    def test_unknown_domain_zero(self, lg_uk_linear_pipeline):
        assert lg_uk_linear_pipeline.bytes_for("ghost.example") == 0
        assert lg_uk_linear_pipeline.packets_for("ghost.example") == []


class TestDnsMap:
    def test_observes_answers(self, lg_uk_linear_pipeline):
        dns_map = lg_uk_linear_pipeline.dns_map
        assert dns_map.answers_seen > 0
        assert len(dns_map.all_domains) >= 4

    def test_bidirectional_mapping(self, lg_uk_linear_pipeline):
        dns_map = lg_uk_linear_pipeline.dns_map
        domain = dns_map.all_domains[0]
        addresses = dns_map.addresses_for(domain)
        assert addresses
        assert domain in dns_map.domains_for(addresses[0])

    def test_unknown_address_label(self):
        dns_map = DnsMap()
        assert dns_map.label(Ipv4Address.parse("9.9.9.9")) == \
            "unresolved:9.9.9.9"


class TestTimelines:
    def test_packets_per_ms_counts_everything_in_window(
            self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        packets = pipeline.packets_for_all(
            pipeline.acr_candidate_domains())
        start, end = minutes(10), minutes(20)
        timeline = packets_per_ms(packets, start, end)
        expected = sum(1 for p in packets if start <= p.timestamp < end)
        assert timeline.total_packets == expected
        assert len(timeline) == 10 * 60 * 1000

    def test_rebin_preserves_total(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        packets = pipeline.packets_for_all(
            pipeline.acr_candidate_domains())
        timeline = packets_per_ms(packets, minutes(10), minutes(20))
        coarse = timeline.rebin(1000)
        assert coarse.total_packets == timeline.total_packets
        assert coarse.bin_ns == seconds(1)

    def test_per_second_equals_rebinned_ms(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        packets = pipeline.packets_for_all(
            pipeline.acr_candidate_domains())
        per_s = packets_per_second(packets, minutes(10), minutes(20))
        per_ms = packets_per_ms(packets, minutes(10), minutes(20))
        assert per_s.total_packets == per_ms.total_packets

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            packets_per_ms([], 100, 100)

    def test_burst_times(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        domain = pipeline.acr_candidate_domains()[0]
        bursts = burst_times_ns(pipeline.packets_for(domain))
        assert len(bursts) > 200  # ~240 batches in an hour

    def test_peak_ratio(self, lg_uk_linear_pipeline, lg_uk_idle_pipeline):
        linear_packets = lg_uk_linear_pipeline.packets_for_all(
            lg_uk_linear_pipeline.acr_candidate_domains())
        idle_packets = lg_uk_idle_pipeline.packets_for_all(
            lg_uk_idle_pipeline.acr_candidate_domains())
        active = packets_per_ms(linear_packets, minutes(10), minutes(20))
        restricted = packets_per_ms(idle_packets, minutes(10),
                                    minutes(20))
        assert peak_ratio(active, restricted) > 1.0


class TestVolumesAndCdf:
    def test_normalize_rotating(self):
        assert normalize_rotating("eu-acr4.alphonso.tv") == \
            "eu-acrX.alphonso.tv"
        assert normalize_rotating("tkacr2.alphonso.tv") == \
            "tkacrX.alphonso.tv"
        assert normalize_rotating("acr0.samsungcloudsolution.com") == \
            "acr0.samsungcloudsolution.com"
        assert normalize_rotating("log-config.samsungacr.com") == \
            "log-config.samsungacr.com"

    def test_cumulative_curve_monotonic(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        packets = pipeline.packets_for_all(
            pipeline.acr_candidate_domains())
        curve = cumulative_bytes(packets, minutes(5), minutes(55))
        diffs = np.diff(curve.cumulative_bytes)
        assert (diffs >= 0).all()
        assert curve.total_bytes > 0

    def test_sent_only_filter(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        packets = pipeline.packets_for_all(
            pipeline.acr_candidate_domains())
        both = cumulative_bytes(packets, minutes(5), minutes(55))
        sent = cumulative_bytes(packets, minutes(5), minutes(55),
                                sent_only_from=pipeline.tv_ip)
        assert 0 < sent.total_bytes < both.total_bytes

    def test_time_to_fraction_monotone(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        packets = pipeline.packets_for_all(
            pipeline.acr_candidate_domains())
        curve = cumulative_bytes(packets, minutes(5), minutes(55))
        assert curve.time_to_fraction(0.25) <= \
            curve.time_to_fraction(0.75)

    def test_median_step_interval_is_batch_cadence(
            self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        packets = pipeline.packets_for_all(
            pipeline.acr_candidate_domains())
        curve = cumulative_bytes(packets, minutes(5), minutes(55),
                                 sent_only_from=pipeline.tv_ip)
        assert 13 <= median_step_interval_s(curve) <= 17

    def test_empty_curve(self):
        curve = cumulative_bytes(ColumnarSlice(ColumnarCapture()), 0, 100)
        assert curve.total_bytes == 0
        assert curve.time_to_fraction(0.5) == float("inf")


class TestPeriodicity:
    def test_lg_15s_cadence(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        domain = pipeline.acr_candidate_domains()[0]
        report = analyze_periodicity(domain, pipeline.packets_for(domain))
        assert report.period_s == pytest.approx(15.0, abs=1.0)
        assert report.regular

    def test_samsung_60s_fingerprint_cadence(
            self, samsung_uk_linear_pipeline):
        pipeline = samsung_uk_linear_pipeline
        report = analyze_periodicity(
            "acr-eu-prd.samsungcloud.tv",
            pipeline.packets_for("acr-eu-prd.samsungcloud.tv"))
        assert report.period_s == pytest.approx(60.0, abs=4.0)
        assert report.regular

    def test_dominant_period_autocorrelation(self,
                                             lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        domain = pipeline.acr_candidate_domains()[0]
        period = dominant_period_s(pipeline.packets_for(domain))
        assert period is not None
        assert period == pytest.approx(15.0, abs=2.0)

    def test_no_packets_no_period(self):
        report = analyze_periodicity("ghost", [])
        assert report.period_s is None
        assert not report.regular
        assert dominant_period_s([]) is None


class TestBlocklists:
    def test_blokada_suffix_matching(self):
        blocklist = Blocklist()
        assert blocklist.is_listed("eu-acr3.alphonso.tv")
        assert blocklist.is_listed("log-config.samsungacr.com")
        assert not blocklist.is_listed("bbc.co.uk")
        assert not blocklist.is_listed("alphonso.tv.evil.example")

    def test_netify_classification(self):
        netify = NetifyDirectory()
        info = netify.classify("log-ingestion-eu.samsungacr.com")
        assert info is not None and info["category"] == "advertiser"
        assert netify.is_tracking_related("eu-acr1.alphonso.tv")
        assert not netify.is_tracking_related("time.example.org")
        assert not netify.is_tracking_related("api.netflix.com")


class TestHeuristic:
    def test_validated_domains(self, lg_uk_linear_pipeline,
                               lg_uk_linear_optout_pipeline):
        auditor = AcrDomainAuditor()
        validated = auditor.validated_domains(
            lg_uk_linear_pipeline, lg_uk_linear_optout_pipeline)
        assert len(validated) == 1
        assert validated[0].startswith("eu-acr")

    def test_findings_fields(self, samsung_uk_linear_pipeline,
                             samsung_uk_linear_optout_pipeline):
        auditor = AcrDomainAuditor()
        findings = auditor.audit(samsung_uk_linear_pipeline,
                                 samsung_uk_linear_optout_pipeline)
        by_domain = {f.domain: f for f in findings}
        assert len(findings) == 4
        for finding in findings:
            assert finding.contains_acr
            assert finding.blocklist_listed
            assert finding.disappears_on_optout
        assert by_domain["acr0.samsungcloudsolution.com"].numbered_scheme

    def test_no_new_acr_domains_on_optout(
            self, samsung_uk_linear_pipeline,
            samsung_uk_linear_optout_pipeline):
        assert no_new_acr_domains(samsung_uk_linear_pipeline,
                                  samsung_uk_linear_optout_pipeline)

    def test_ads_counterexample_irregular(self,
                                          samsung_uk_linear_pipeline):
        auditor = AcrDomainAuditor()
        reports = auditor.counterexample_regularity(
            samsung_uk_linear_pipeline)
        assert reports, "expected ad-platform domains in the capture"
        assert any(not report.regular for report in reports.values())


class TestComparisons:
    def test_optout_comparison_silent(self, lg_uk_linear_pipeline,
                                      lg_uk_linear_optout_pipeline):
        comparison = PhaseComparison(
            "LIn-OIn", lg_uk_linear_pipeline,
            "LIn-OOut", lg_uk_linear_optout_pipeline)
        assert comparison.b_is_silent
        assert not comparison.same_domain_set

    def test_acr_volume_total(self, lg_uk_linear_pipeline,
                              lg_uk_idle_pipeline):
        linear = acr_volume_total(lg_uk_linear_pipeline)
        idle = acr_volume_total(lg_uk_idle_pipeline)
        assert linear > 10 * idle
