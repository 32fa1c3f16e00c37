"""Generate the EXPERIMENTS.md paper-vs-measured report.

Run as a module to regenerate the file from live simulations::

    python -m repro.experiments.report > EXPERIMENTS.md

Every section reads cells through the shared
:class:`~repro.experiments.grid.GridResults` cache;
``generate(jobs=N)`` (or ``python -m repro.cli report --jobs N``)
prefetches the full set on a process pool first, and a warm on-disk
cache makes regeneration incremental.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis import analyze_periodicity, median_step_interval_s
from ..analysis.compare import acr_volume_total
from ..reporting import render_markdown
from ..testbed.experiment import (Country, ExperimentSpec, Phase, Scenario,
                                  Vendor, paper_vendors, vendor_profile_of)
from . import cache
from .fig_cdf import transmitted_curve
from .fig_timelines import SCENARIO_LABELS, build_figure
from .findings import run_all_checks
from .findings import required_specs as scorecard_specs
from .geolocation import run_geo_experiment
from .grid import enumerate_cells
from .tables_volumes import build_table, comparison_rows

_PAPER_TABLE_TITLES = {
    ("uk", Phase.LIN_OIN): "Table 2 — UK, LIn-OIn",
    ("uk", Phase.LOUT_OIN): "Table 3 — UK, LOut-OIn",
    ("us", Phase.LIN_OIN): "Table 4 — US, LIn-OIn",
    ("us", Phase.LOUT_OIN): "Table 5 — US, LOut-OIn",
}


def volume_tables_section(seed: int) -> List[str]:
    lines: List[str] = ["## Tables 2-5: KB to/from ACR domains", ""]
    for (country_key, phase), title in _PAPER_TABLE_TITLES.items():
        country = Country.UK if country_key == "uk" else Country.US
        table = build_table(country, phase, seed)
        rows = comparison_rows(table, country, phase)
        lines.append(f"### {title}")
        lines.append("")
        lines.append(render_markdown(
            ["Domain", "Scenario", "Paper KB", "Measured KB"], rows))
        lines.append("")
    return lines


def timeline_section(seed: int) -> List[str]:
    lines = ["## Figures 4/6/8-11: traffic timelines", ""]
    for figure_name, country, phase in (
            ("Figure 4 (also Figure 8)", Country.UK, Phase.LIN_OIN),
            ("Figure 9", Country.UK, Phase.LOUT_OIN),
            ("Figure 6 (also Figure 10)", Country.US, Phase.LIN_OIN),
            ("Figure 11", Country.US, Phase.LOUT_OIN)):
        rows = []
        for vendor in paper_vendors():
            panel = build_figure(vendor, country, phase, seed)
            for scenario in Scenario:
                timeline = panel.timelines[scenario]
                rows.append([vendor.value, SCENARIO_LABELS[scenario],
                             str(timeline.total_packets),
                             str(timeline.peak)])
        lines.append(f"### {figure_name} — {country.value.upper()} "
                     f"{phase.value}")
        lines.append("")
        lines.append(render_markdown(
            ["Vendor", "Scenario", "packets in 10 min window",
             "peak pkts/ms"], rows))
        lines.append("")
    return lines


def cdf_section(seed: int) -> List[str]:
    lines = ["## Figures 5/7: CDF cadences", "",
             "Median interval between transmission steps on the "
             "fingerprint channel (paper: LG every 15 s, Samsung every "
             "minute):", ""]
    rows = []
    for country in Country:
        lg_curve = transmitted_curve(ExperimentSpec(
            Vendor.LG, country, Scenario.LINEAR, Phase.LIN_OIN), seed)
        fp_domain = ("acr-eu-prd.samsungcloud.tv" if country is Country.UK
                     else "acr-us-prd.samsungcloud.tv")
        samsung_curve = transmitted_curve(
            ExperimentSpec(Vendor.SAMSUNG, country, Scenario.LINEAR,
                           Phase.LIN_OIN), seed, domains=[fp_domain])
        rows.append([country.value.upper(),
                     f"{median_step_interval_s(lg_curve):.1f} s",
                     f"{median_step_interval_s(samsung_curve):.1f} s"])
    lines.append(render_markdown(
        ["Country", "LG step (paper ~15 s)", "Samsung step (paper ~60 s)"],
        rows))
    lines.append("")
    return lines


def geolocation_section(seed: int) -> List[str]:
    lines = ["## §4.1/§4.3: geolocation", ""]
    paper_cities = {
        "eu-acr": "Amsterdam", "tkacr": "US",
        "acr-eu-prd.samsungcloud.tv": "London",
        "acr-us-prd.samsungcloud.tv": "US",
        "acr0.samsungcloudsolution.com": "Amsterdam",
        "log-config.samsungacr.com": "New York",
        "log-ingestion-eu.samsungacr.com": "London",
        "log-ingestion.samsungacr.com": "US",
    }
    for country in Country:
        experiment = run_geo_experiment(country, seed)
        rows = []
        for domain in experiment.domains:
            expected = next((city for prefix, city in paper_cities.items()
                             if domain.startswith(prefix)
                             or domain == prefix), "?")
            rows.append([domain, expected, experiment.city_of(domain),
                         "yes" if experiment.dpf_ok[domain] else "no"])
        lines.append(f"### {country.value.upper()} vantage")
        lines.append("")
        lines.append(render_markdown(
            ["Domain", "Paper location", "Measured location",
             "DPF listed"], rows))
        lines.append("")
    return lines


def scorecard_section(seed: int, vendors=None) -> List[str]:
    checks = run_all_checks(seed, vendors=vendors)
    # The paper-pair slice keeps its historical heading (and bytes);
    # extension findings widen it.
    extended = any(check.code.startswith("X") for check in checks)
    title = ("## Findings scorecard (S1-S12 + vendor extensions)"
             if extended else "## Findings scorecard (S1-S12)")
    lines = [title, ""]
    rows = []
    for check in checks:
        rows.append([check.code,
                     "PASS" if check.passed else "FAIL",
                     check.title,
                     check.evidence_text().replace("|", "/")])
    lines.append(render_markdown(
        ["Id", "Result", "Paper finding", "Measured evidence"], rows))
    lines.append("")
    return lines


def _extension_vendors(vendors=None) -> List[Vendor]:
    """The selected non-paper vendors, in registration order."""
    chosen = (set(vendors) if vendors is not None
              else {member.value for member in Vendor})
    paper = {vendor.value for vendor in paper_vendors()}
    return [member for member in Vendor
            if member.value in chosen - paper]


def extension_section(seed: int, vendors=None) -> List[str]:
    """Measured behaviour of the extension vendors, per country.

    These vendors have no paper reference columns; the table reports the
    registry-declared contract next to what the analysis pipeline
    actually measured on the Linear cell of each phase class.
    """
    extensions = _extension_vendors(vendors)
    if not extensions:
        return []
    lines = ["## Vendor extensions: registry contract vs measured", ""]
    for vendor in extensions:
        profile = vendor_profile_of(vendor)
        contract = profile.contract
        declared_cadence = ("bursty (content-gated)" if contract.bursty
                            else f"{contract.cadence_s:.0f} s")
        lines.append(f"### {profile.display_name} — declared: cadence "
                     f"{declared_cadence}, opt-out {contract.optout}")
        lines.append("")
        rows = []
        for country in Country:
            for phase in (Phase.LIN_OIN, Phase.LIN_OOUT):
                pipeline = cache.grid(seed).pipeline(ExperimentSpec(
                    vendor, country, Scenario.LINEAR, phase))
                domains = pipeline.acr_candidate_domains()
                volume = acr_volume_total(pipeline)
                cadence = "-"
                if domains:
                    report = analyze_periodicity(
                        domains[0], pipeline.packets_for(domains[0]))
                    if report.period_s is not None:
                        cadence = f"{report.period_s:.1f} s"
                rows.append([
                    country.value.upper(), phase.value,
                    profile.expected_activity(country.value, phase),
                    str(len(domains)), f"{volume:.1f}", cadence])
        lines.append(render_markdown(
            ["Country", "Phase", "Declared activity", "ACR domains",
             "KB", "Measured cadence"], rows))
        lines.append("")
    return lines


def cadence_section(seed: int) -> List[str]:
    lines = ["## §4.1 cadence findings", ""]
    lg = cache.grid(seed).pipeline(ExperimentSpec(
        Vendor.LG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN))
    lg_domain = lg.acr_candidate_domains()[0]
    lg_report = analyze_periodicity(lg_domain, lg.packets_for(lg_domain))
    samsung = cache.grid(seed).pipeline(ExperimentSpec(
        Vendor.SAMSUNG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN))
    samsung_report = analyze_periodicity(
        "acr-eu-prd.samsungcloud.tv",
        samsung.packets_for("acr-eu-prd.samsungcloud.tv"))
    rows = [
        ["LG batching", "10 ms captures batched every 15 s",
         f"period {lg_report.period_s:.1f} s, CV {lg_report.cv:.2f}"],
        ["Samsung batching", "500 ms captures batched every minute",
         f"period {samsung_report.period_s:.1f} s, "
         f"CV {samsung_report.cv:.2f}"],
    ]
    lines.append(render_markdown(["Finding", "Paper", "Measured"], rows))
    lines.append("")
    return lines


def required_specs(vendors=None) -> List[ExperimentSpec]:
    """Every cell the report reads (56 of the paper's 96-cell sub-matrix,
    plus the scorecard/extension cells of any selected extension vendor)."""
    specs = {}
    groups = [
        # Tables 2-5, Figures 4-11 and the CDFs: every scenario in
        # both opted-in phases — paper vendors only.
        enumerate_cells({"vendor": set(paper_vendors()),
                         "phase": {Phase.LIN_OIN, Phase.LOUT_OIN}}),
        # The embedded scorecard additionally reads opt-out cells (and
        # the extension checks' cells when their vendors are selected).
        scorecard_specs(vendors),
    ]
    for vendor in _extension_vendors(vendors):
        groups.append(enumerate_cells({
            "vendor": {vendor}, "scenario": {Scenario.LINEAR},
            "phase": {Phase.LIN_OIN, Phase.LIN_OOUT}}))
    for group in groups:
        for spec in group:
            specs.setdefault(spec.label, spec)
    return list(specs.values())


def generate(seed: int = cache.DEFAULT_SEED,
             jobs: Optional[int] = None, vendors=None) -> str:
    """The full EXPERIMENTS.md content.

    ``jobs > 1`` prefetches every cell through the grid runner first;
    the rendered report is identical to a serial run.  ``vendors``
    restricts the scorecard and extension sections — the paper sections
    always cover exactly the paper's pair, so
    ``generate(vendors=("samsung", "lg"))`` reproduces the pre-registry
    report byte for byte.
    """
    if jobs and jobs > 1:
        cache.grid(seed).ensure(required_specs(vendors), jobs=jobs)
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Every table and figure of the paper's evaluation, regenerated on "
        "the simulated testbed (seed "
        f"{seed}, one simulated hour per cell).  Absolute numbers are "
        "calibrated; the *shape* — who wins, by what factor, where the "
        "crossovers fall — is asserted by `tests/test_experiments.py` and "
        "the benches in `benchmarks/`.",
        "",
        "Regenerate with: `python -m repro.experiments.report > "
        "EXPERIMENTS.md`",
        "",
        "Known deviations (documented, not hidden):",
        "",
        "- `acr0.samsungcloudsolution.com` shows ~10 KB in Idle/Antenna "
        "where paper Table 2 prints `-`; the paper's own Table 3 reports "
        "11.1 KB for the same cells, so our always-on keep-alive model "
        "sides with Table 3.",
        "- `log-ingestion-eu` in the UK FAST cell measures ~158 KB vs the "
        "paper's 125 KB (we model one telemetry tier; the paper's two "
        "phases disagree on this cell by 30% themselves).",
        "- LG Screen Cast in the US measures ~168 KB vs 240 KB (paper's "
        "two phases differ by 8%; our US beacon tier is calibrated to the "
        "Idle/OTT cells).",
        "- `acr0.samsungcloudsolution.com` Screen Cast: paper Table 2 "
        "says 11.7 KB and Table 3 says 24.3 KB for the same keep-alive; "
        "our model matches the Table 2 value (~10.9 KB) in both phases.",
        "",
    ]
    lines += scorecard_section(seed, vendors)
    lines += volume_tables_section(seed)
    lines += timeline_section(seed)
    lines += cdf_section(seed)
    lines += cadence_section(seed)
    lines += geolocation_section(seed)
    lines += extension_section(seed, vendors)
    return "\n".join(lines)


if __name__ == "__main__":
    print(generate())
