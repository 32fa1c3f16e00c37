"""The population report: a fleet aggregate rendered as markdown.

Every number here is derived from the aggregate's integer accumulators
with fixed formatting, so the report is a pure function of the
population — byte-identical across job counts, shard orderings and
cache states.  Wall-clock and cache statistics intentionally live in
the CLI's stderr stream, never in the report.
"""

from __future__ import annotations

from typing import List

from ..reporting import render_table
from .aggregate import FleetAggregate
from .population import MIX_AXES, PopulationSpec


def _pct(numerator: int, denominator: int) -> str:
    if not denominator:
        return "-"
    return f"{100.0 * numerator / denominator:.1f}%"


def _kb(total_bytes: int) -> str:
    return f"{total_bytes / 1000.0:.1f}"


def render_population_report(aggregate: FleetAggregate,
                             population: PopulationSpec) -> str:
    """The full population report for one fleet run.

    Accepts a :class:`FleetAggregate` (what ``serve`` folds) or a
    ``FleetResult`` carrying one under ``.aggregate``; both render
    byte-identically.
    """
    sections: List[str] = []
    agg = getattr(aggregate, "aggregate", aggregate)

    sections.append(
        f"# Fleet audit report\n\n"
        f"{population.households} simulated households, fleet seed "
        f"{population.seed}.  Each household plays one viewing diary "
        f"(a multi-scenario session) on its sampled vendor/country/"
        f"privacy configuration; every number below is folded from "
        f"per-household audits of the captures alone.")

    # -- population mix ---------------------------------------------------------
    counters = {"vendor": agg.vendors, "country": agg.countries,
                "phase": agg.phases, "diary": agg.diaries}
    rows = []
    for axis in MIX_AXES:
        weights = population.mixes[axis]
        total_weight = sum(weights.values())
        for value in sorted(weights):
            if weights[value] <= 0:
                continue
            rows.append([
                axis, value,
                f"{100.0 * weights[value] / total_weight:.1f}%",
                counters[axis][value],
                _pct(counters[axis][value], agg.households)])
    sections.append("## Population mix\n\n" + render_table(
        ["axis", "value", "target", "households", "realized"], rows))

    # -- ACR reach --------------------------------------------------------------
    reach_rows = [["all", "all", agg.households, agg.acr_households,
                   _pct(agg.acr_households, agg.households)]]
    for vendor in sorted(agg.vendors):
        reach_rows.append(
            ["vendor", vendor, agg.vendors[vendor],
             agg.acr_households_by_vendor[vendor],
             _pct(agg.acr_households_by_vendor[vendor],
                  agg.vendors[vendor])])
    for country in sorted(agg.countries):
        reach_rows.append(
            ["country", country, agg.countries[country],
             agg.acr_households_by_country[country],
             _pct(agg.acr_households_by_country[country],
                  agg.countries[country])])
    sections.append("## ACR reach\n\n" + render_table(
        ["axis", "value", "households", "with ACR flows", "share"],
        reach_rows))

    # -- ACR volume -------------------------------------------------------------
    volume_rows = []
    for vendor in sorted(agg.vendors):
        with_acr = agg.acr_households_by_vendor[vendor]
        volume_rows.append(
            [vendor, _kb(agg.acr_bytes_by_vendor[vendor]),
             _kb(agg.acr_upload_bytes_by_vendor[vendor]),
             _kb(agg.acr_bytes_by_vendor[vendor] // with_acr)
             if with_acr else "-"])
    sections.append("## ACR traffic volume\n\n" + render_table(
        ["vendor", "total KB", "upload KB", "KB per ACR household"],
        volume_rows))

    # -- contact cadence --------------------------------------------------------
    cadence_rows = [
        [vendor, agg.cadence_intervals_by_vendor[vendor],
         f"{agg.mean_cadence_s(vendor):.1f}s"
         if agg.cadence_intervals_by_vendor[vendor] else "-"]
        for vendor in sorted(agg.vendors)]
    sections.append("## ACR contact cadence\n\n" + render_table(
        ["vendor", "intervals", "mean interval"], cadence_rows))

    # -- opt-out efficacy -------------------------------------------------------
    optout_rows = [
        ["opted in", agg.optin_households, agg.optin_acr_households,
         _pct(agg.optin_acr_households, agg.optin_households)],
        ["opted out", agg.optout_households, agg.optout_acr_households,
         _pct(agg.optout_acr_households, agg.optout_households)],
    ]
    sections.append(
        "## Opt-out efficacy\n\n"
        + render_table(["group", "households", "with ACR flows",
                        "share"], optout_rows)
        + "\n\nOpt-out is effective iff the opted-out share is 0% "
          "while the opted-in share is not.")

    # -- domains ----------------------------------------------------------------
    domain_rows = [[domain, count, _pct(count, agg.households)]
                   for domain, count in sorted(
                       agg.domain_households.items(),
                       key=lambda item: (-item[1], item[0]))]
    if domain_rows:
        sections.append("## ACR domains observed\n\n" + render_table(
            ["domain", "households", "share"], domain_rows))
    else:
        sections.append("## ACR domains observed\n\nnone")

    # -- degradations -----------------------------------------------------------
    # Quarantined capture records, with evidence.  Rendered only when
    # present, so every clean run's report stays byte-identical to one
    # produced before degradation tracking existed.
    if agg.degradations:
        degradation_rows = [[evidence, count] for evidence, count
                            in sorted(agg.degradations.items())]
        sections.append(
            "## Degradations\n\n"
            "Capture records the audit quarantined instead of "
            "decoding; their traffic is excluded from every figure "
            "above.\n\n"
            + render_table(["evidence", "occurrences"],
                           degradation_rows))

    return "\n\n".join(sections) + "\n"
