"""Tests for the audit pipeline: DNS mapping, domain indexing, timelines,
volumes, CDFs, periodicity, the heuristic, and comparisons.

Session-scoped fixtures in conftest.py provide real one-hour captures.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import (AcrDomainAuditor, AuditPipeline, Blocklist,
                            CumulativeCurve, DnsMap, NetifyDirectory,
                            PhaseComparison, acr_volume_total,
                            analyze_periodicity, burst_times_ns,
                            cumulative_bytes, median_step_interval_s,
                            no_new_acr_domains, normalize_rotating,
                            packets_per_ms)
from repro.net import ColumnarCapture, ColumnarSlice, Ipv4Address
from repro.analysis.periodicity import REGULAR_CV_THRESHOLD
from repro.sim import minutes, seconds
from timeline_oracle import rebin


class TestPipeline:
    def test_from_result_roundtrip(self, lg_uk_linear_record,
                                   lg_uk_linear_pipeline):
        assert lg_uk_linear_pipeline.tv_ip == Ipv4Address.parse(
            lg_uk_linear_record.tv_ip)
        assert len(lg_uk_linear_pipeline.packets) == \
            lg_uk_linear_record.packet_count

    def test_tv_ip_inference(self, lg_uk_linear_record):
        pipeline = AuditPipeline.from_pcap_bytes(
            lg_uk_linear_record.pcap_bytes)
        assert pipeline.tv_ip == Ipv4Address.parse(
            lg_uk_linear_record.tv_ip)

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
        assert len(dns_map) >= 4

    def test_contacted_domains_resolve_back(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        for domain in pipeline.contacted_domains:
            packet = pipeline.packets_for(domain)[0]
            remote = packet.dst_ip if packet.src_ip == pipeline.tv_ip \
                else packet.src_ip
            assert domain in pipeline.dns_map.domains_for(remote)

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
        coarse = rebin(timeline, 1000)
        assert coarse.total_packets == timeline.total_packets
        assert coarse.bin_ns == seconds(1)

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
        assert active.peak > restricted.peak


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
        assert len(curve) == 0


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

    def test_no_packets_no_period(self):
        report = analyze_periodicity("ghost", [])
        assert report.period_s is None
        assert not report.regular

    @staticmethod
    def _at(*times_s):
        return [SimpleNamespace(timestamp=seconds(t)) for t in times_s]

    def test_single_burst_has_no_period(self):
        report = analyze_periodicity("one", self._at(0, 0.5, 1.5, 3.0))
        assert report.bursts == 1
        assert report.period_s is None and report.cv is None
        assert not report.regular

    def test_gap_must_exceed_the_threshold_to_split(self):
        assert burst_times_ns(self._at(0, 1, 2, 3.5)) == [0, seconds(3.5)]
        assert burst_times_ns(self._at(3.5, 0, 2, 1), gap_ns=seconds(2)) \
            == [0]

    def test_five_even_bursts_are_regular_four_are_not(self):
        four = analyze_periodicity("d", self._at(0, 15, 30, 45))
        five = analyze_periodicity("d", self._at(0, 15, 30, 45, 60))
        assert four.cv == 0.0 and not four.regular
        assert five.regular
        assert five.period_s == 15.0
        assert five.intervals_s == [15.0] * 4

    def test_irregular_contacts_are_not_regular(self):
        report = analyze_periodicity("ads",
                                     self._at(0, 5, 60, 70, 200, 210))
        assert report.intervals_s == [5.0, 55.0, 10.0, 130.0, 10.0]
        assert report.period_s == 10.0  # the median interval
        assert report.cv >= REGULAR_CV_THRESHOLD
        assert not report.regular

    def test_report_repr(self):
        assert repr(analyze_periodicity("d", self._at(0, 15, 30))) == \
            "PeriodicityReport(d, 3 bursts, period=15.0s, cv=0.00)"
        assert repr(analyze_periodicity("d", [])) == \
            "PeriodicityReport(d, 0 bursts, period=n/a, cv=n/a)"


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
        validated = [finding.domain for finding in auditor.audit(
            lg_uk_linear_pipeline, lg_uk_linear_optout_pipeline)
            if finding.validated]
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
