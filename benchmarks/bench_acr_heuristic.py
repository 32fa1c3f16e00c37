"""§3.2: the "acr"-substring heuristic and its validations, plus the
analysis-substrate throughput (pcap decode — ablation D1)."""

from conftest import once

from repro.analysis import AcrDomainAuditor, AuditPipeline
from repro.experiments import cache
from repro.net import ColumnarCapture
from repro.reporting import render_table
from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,
                           Vendor)


def run_heuristic():
    auditor = AcrDomainAuditor()
    opted_in = cache.pipeline_for(ExperimentSpec(
        Vendor.SAMSUNG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN))
    opted_out = cache.pipeline_for(ExperimentSpec(
        Vendor.SAMSUNG, Country.UK, Scenario.LINEAR, Phase.LIN_OOUT))
    findings = auditor.audit(opted_in, opted_out)
    contrast = auditor.counterexample_regularity(opted_in)
    return findings, contrast


def test_acr_heuristic(benchmark, uk_opted_in_cells, optout_cells):
    findings, contrast = once(benchmark, run_heuristic)
    rows = []
    for finding in findings:
        cadence = finding.periodicity
        rows.append([
            finding.domain,
            "yes" if finding.blocklist_listed else "no",
            finding.netify_category or "-",
            "yes" if finding.numbered_scheme else "no",
            f"{cadence.period_s:.0f}s" if cadence.period_s else "-",
            "yes" if cadence.regular else "no",
            "yes" if finding.disappears_on_optout else "NO",
            "yes" if finding.validated else "NO",
        ])
    print("\n" + render_table(
        ["domain", "blocklist", "netify", "numbered", "period",
         "regular", "gone on opt-out", "validated"], rows,
        title="§3.2 heuristic validation (Samsung UK Linear)"))
    contrast_rows = [[domain, f"{report.cv:.2f}"
                      if report.cv is not None else "-",
                      "irregular" if not report.regular else "regular"]
                     for domain, report in contrast.items()]
    print("\n" + render_table(
        ["ad-platform domain", "interval CV", "pattern"],
        contrast_rows,
        title="contrast: ad domains (samsungads.com-style)"))
    assert all(f.validated for f in findings)
    assert any(not report.regular for report in contrast.values())


def test_pcap_decode_throughput(benchmark, uk_opted_in_cells):
    """Ablation D1: the cost of the real pcap round-trip."""
    result = cache.result_for(ExperimentSpec(
        Vendor.LG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN))
    raw = result.pcap_bytes

    def decode():
        return len(ColumnarCapture.from_pcap_bytes(raw))

    count = benchmark(decode)
    megabytes = len(raw) / 1e6
    print(f"\ndecoded {count} packets from a {megabytes:.1f} MB pcap")
    assert count == result.packet_count


def test_pipeline_build_throughput(benchmark, uk_opted_in_cells):
    """Full audit-pipeline construction over a one-hour capture."""
    result = cache.result_for(ExperimentSpec(
        Vendor.LG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN))

    def build():
        return AuditPipeline.from_result(result)

    pipeline = benchmark(build)
    assert pipeline.acr_candidate_domains()
