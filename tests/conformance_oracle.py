"""Vendor conformance contracts evaluated into findings: the
conformance suite's oracle.

Each registered :class:`~repro.tv.vendors.base.VendorProfile` declares
a :class:`~repro.tv.vendors.base.VendorContract` — expected ACR
endpoint set per country, cadence (or burstiness), and opt-out class.
This module measures one Linear capture against that declaration and
emits one :class:`~repro.findings.model.Finding` per contract clause,
so the differential conformance suite
(``tests/test_vendor_conformance.py``) reads structured verdicts
instead of bespoke assertion strings.  No command emits ``CONF-*``
findings, so the evaluator lives beside the suite, not in ``src``.

Codes:

* ``CONF-ACTIVITY`` — the declared activity class (full / downsampled
  / ads-only / silent) matches what the capture shows at all;
* ``CONF-ENDPOINTS`` — every contacted ACR endpoint is declared (and,
  when fully active, every declared endpoint is contacted);
* ``CONF-CADENCE`` — the fingerprint channel ticks at the declared
  period (or is measurably bursty for burst-contract vendors);
* ``CONF-VOLUME`` — downsampled / ads-only cells carry the declared
  fraction of the full-activity reference volume;
* ``CONF-OPTOUT`` — the opt-out differential matches the contract
  class (silence vendors vanish, downsample vendors shrink,
  shared-endpoint vendors leave ad residue; never a new endpoint).
"""

from __future__ import annotations

from typing import List

from repro.analysis.periodicity import analyze_periodicity
from repro.analysis.volumes import normalize_rotating
from repro.findings import Evidence, Finding
from repro.tv import vendors

#: Ceilings for the reduced-activity classes, as fractions of the
#: vendor's richest opted-in Linear volume (the same bounds the
#: conformance suite has always asserted).
DOWNSAMPLE_CEILING = 0.75
ADS_ONLY_CEILING = 0.30


def _cell(profile, country: str, phase) -> str:
    return f"{profile.name}/{country}/{phase.value}"


def _acr_kb(pipeline) -> float:
    return sum(pipeline.kilobytes_for(domain)
               for domain in pipeline.acr_candidate_domains())


def _finding(code: str, title: str, passed: bool, evidence: Evidence,
             confidence: float = 1.0) -> Finding:
    return Finding(code=code, title=title, severity="high",
                   confidence=confidence, passed=passed,
                   evidence=(evidence,))


def cell_findings(profile, country: str, phase, pipeline,
                  reference_kb: float, seed: int) -> List[Finding]:
    """Contract findings for one measured vendor/country/phase cell.

    ``reference_kb`` is the vendor's richest opted-in Linear volume
    (cross-country, so consent defaults cannot leave it empty);
    ``seed`` selects the rotating fingerprint domain to measure
    cadence on.
    """
    contract = profile.contract
    activity = profile.expected_activity(country, phase)
    measured = pipeline.acr_candidate_domains()
    normalized = {normalize_rotating(domain) for domain in measured}
    declared = set(contract.acr_domains[country])
    kb = _acr_kb(pipeline)
    where = dict(capture=_cell(profile, country, phase),
                 vendor=profile.name, country=country,
                 phase=phase.value)
    findings: List[Finding] = []

    if activity == vendors.ACTIVITY_SILENT:
        findings.append(_finding(
            "CONF-ACTIVITY", "declared-silent cell contacts no ACR "
            "endpoint", not measured,
            Evidence(text=(f"declared silent, contacted "
                           f"{sorted(measured) or 'nothing'}"),
                     **where)))
        return findings

    findings.append(_finding(
        "CONF-ACTIVITY",
        f"declared-{activity} cell shows ACR traffic", bool(measured),
        Evidence(text=(f"declared {activity}, contacted "
                       f"{sorted(measured) or 'nothing'}"), **where)))
    if not measured:
        return findings

    if activity == vendors.ACTIVITY_FULL:
        endpoints_ok = normalized == declared
        endpoint_text = (f"contacted {sorted(normalized)} == declared "
                         f"{sorted(declared)}" if endpoints_ok else
                         f"undeclared {sorted(normalized - declared)}, "
                         f"missing {sorted(declared - normalized)}")
    else:
        endpoints_ok = normalized <= declared
        endpoint_text = (f"contacted {sorted(normalized)} within "
                         f"declared {sorted(declared)}"
                         if endpoints_ok else
                         f"undeclared ACR endpoints: "
                         f"{sorted(normalized - declared)}")
    findings.append(_finding(
        "CONF-ENDPOINTS", "contacted ACR endpoints match the declared "
        "set", endpoints_ok, Evidence(text=endpoint_text, **where)))

    if activity == vendors.ACTIVITY_FULL:
        findings.append(_cadence_finding(profile, country, phase,
                                         pipeline, seed))
    elif activity == vendors.ACTIVITY_DOWNSAMPLED:
        passed = 0 < kb < DOWNSAMPLE_CEILING * reference_kb
        findings.append(_finding(
            "CONF-VOLUME", "opt-out downsamples (but never silences) "
            "uploads", passed,
            Evidence(text=(f"{kb:.1f}KB vs full reference "
                           f"{reference_kb:.1f}KB (ceiling "
                           f"{DOWNSAMPLE_CEILING:.0%})"), **where)))
    elif activity == vendors.ACTIVITY_ADS_ONLY:
        passed = 0 < kb < ADS_ONLY_CEILING * reference_kb
        findings.append(_finding(
            "CONF-VOLUME", "shared endpoint carries only ad-stack "
            "residue", passed,
            Evidence(text=(f"{kb:.1f}KB vs full reference "
                           f"{reference_kb:.1f}KB (ceiling "
                           f"{ADS_ONLY_CEILING:.0%})"), **where)))
    return findings


def _cadence_finding(profile, country: str, phase, pipeline,
                     seed: int) -> Finding:
    fingerprint = profile.fingerprint_domain(country, 0, seed)
    report = analyze_periodicity(fingerprint,
                                 pipeline.packets_for(fingerprint))
    where = dict(capture=_cell(profile, country, phase),
                 vendor=profile.name, country=country,
                 phase=phase.value, flow=fingerprint)
    if profile.contract.bursty:
        return _finding(
            "CONF-CADENCE", "burst-contract uploads are not periodic",
            not report.regular,
            Evidence(text=f"declared bursty; measured {report!r}",
                     **where),
            confidence=0.9)
    declared = profile.contract.cadence_s
    tolerance = profile.contract.cadence_tolerance_s
    passed = (report.period_s is not None
              and abs(report.period_s - declared) <= tolerance)
    measured_s = "unmeasurable" if report.period_s is None \
        else f"{report.period_s:.1f}s"
    return _finding(
        "CONF-CADENCE", "fingerprint cadence matches the declared "
        "period", passed,
        Evidence(text=(f"declared {declared}s +/- {tolerance}s, "
                       f"measured {measured_s}"), **where),
        confidence=0.9)


def optout_findings(profile, country: str, opted_in,
                    opted_out) -> List[Finding]:
    """The opt-out differential for one vendor/country pair.

    ``opted_in`` / ``opted_out`` are the LIn-OIn and LOut-OOut Linear
    pipelines; the contract class decides what the fully-opted-out
    capture may still contain.
    """
    in_domains = set(opted_in.acr_candidate_domains())
    out_domains = set(opted_out.acr_candidate_domains())
    where = dict(capture=f"{profile.name}/{country}/optout-diff",
                 vendor=profile.name, country=country)
    findings = [_finding(
        "CONF-OPTOUT", "opting out never contacts a new ACR endpoint",
        out_domains <= in_domains,
        Evidence(text=(f"new endpoints after opt-out: "
                       f"{sorted(out_domains - in_domains) or 'none'}"),
                 **where))]
    if profile.contract.optout == vendors.OPTOUT_DOWNSAMPLE:
        passed, expectation = bool(out_domains), \
            "downsample contract keeps uploading after opt-out"
    elif profile.contract.shared_ad_endpoint:
        passed, expectation = bool(out_domains), \
            "shared endpoint keeps ad-stack residue after opt-out"
    else:
        passed, expectation = not out_domains, \
            "silence contract goes quiet after opt-out"
    findings.append(_finding(
        "CONF-OPTOUT", expectation, passed,
        Evidence(text=(f"opted-out ACR domains: "
                       f"{sorted(out_domains) or 'none'}"), **where)))
    return findings


def conformance_reference_kb(profile, pipelines_by_country) -> float:
    """The vendor's richest opted-in Linear volume across countries."""
    return max(_acr_kb(pipeline)
               for pipeline in pipelines_by_country.values())


__all__ = ["ADS_ONLY_CEILING", "DOWNSAMPLE_CEILING", "cell_findings",
           "conformance_reference_kb", "optout_findings"]
