"""The paper's headline findings as executable checks (S1-S12), plus the
extension-vendor findings (X1-X6) contributed by the plugin registry.

Each check returns a first-class :class:`~repro.findings.Finding` —
code, title, severity, confidence, pass/fail verdict and structured
:class:`~repro.findings.Evidence` pointers beside the measured evidence
text — so benches can print the whole scorecard, tests can assert every
shape target from DESIGN.md, and ``--findings-out`` can export the run
as schema-v1 JSONL.  Cells are consumed through the shared
:class:`~repro.experiments.grid.GridResults` API;
:func:`required_specs` names every cell the scorecard reads so
``run_all_checks(jobs=N)`` can prefetch them on a process pool.

Severity encodes the triage priority of a *failed* instance of the
check (an opt-out leak is ``critical``; an endpoint-inventory drift is
``medium``); confidence encodes the measurement methodology (exact
byte/domain accounting is 1.0, periodicity and ratio statistics 0.9,
RTT-derived geolocation 0.75, the blocklist heuristic 0.85).  The
rendered scorecard ignores both, so the plain-text output — pinned by
the golden corpus — is byte-identical to the pre-model output.

Every check declares the vendor set it covers; ``run_all_checks`` (and
the CLI's ``scorecard --vendors``) filters on it.  The S checks read only
the paper's pair, so a ``--vendors samsung,lg`` scorecard is byte-for-
byte the pre-registry output.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from ..analysis.acr_domains import AcrDomainAuditor, no_new_acr_domains
from ..analysis.compare import (CountryComparison, PhaseComparison,
                                acr_volume_total)
from ..analysis.periodicity import analyze_periodicity
from ..analysis.volumes import normalize_rotating
from ..findings import Evidence, Finding, FindingsLedger
from ..testbed.experiment import (Country, ExperimentSpec, Phase, Scenario,
                                  Vendor, paper_vendors)
from . import cache
from .fig_timelines import build_figure
from .geolocation import run_geo_experiment
from .grid import enumerate_cells

_PAPER_VENDOR_NAMES = frozenset(v.value for v in paper_vendors())


def covers(*vendor_names: str) -> Callable:
    """Decorator tagging a check with the vendors it reads cells for."""
    def tag(check: Callable) -> Callable:
        check.vendors = frozenset(vendor_names)
        return check
    return tag


def paper_finding(check: Callable) -> Callable:
    """A check over the paper's audited pair only."""
    check.vendors = _PAPER_VENDOR_NAMES
    return check


def _pipe(vendor, country, scenario, phase, seed):
    return cache.grid(seed).pipeline(
        ExperimentSpec(vendor, country, scenario, phase))


def _evidence(entries: List[Evidence], default_text: str
              ) -> tuple:
    """Per-failure evidence entries, or the all-pass default line.

    The texts join with '; ' in :meth:`Finding.evidence_text`, which
    reproduces the historical single-string evidence byte for byte.
    """
    return tuple(entries) if entries else (Evidence(text=default_text),)


def _cell_evidence(text: str, vendor, country, scenario, phase
                   ) -> Evidence:
    """Evidence pointing at one grid cell."""
    return Evidence(
        text=text,
        capture=ExperimentSpec(vendor, country, scenario, phase).label,
        vendor=vendor.value, country=country.value, phase=phase.value)


def _paper_filter(**extra) -> Dict[str, Set]:
    filters = {"vendor": set(paper_vendors())}
    filters.update(extra)
    return filters


def required_specs(vendors: Optional[Iterable[str]] = None
                   ) -> List[ExperimentSpec]:
    """Every cell the selected checks read.

    For the paper pair that is 34 cells (of its 96-cell sub-matrix); the
    extension checks add their own, much smaller, cell sets.
    """
    chosen = _chosen_vendors(vendors)
    specs: Dict[str, ExperimentSpec] = {}
    groups: List[List[ExperimentSpec]] = []
    if _PAPER_VENDOR_NAMES <= chosen:
        groups += [
            # S1/S3-S8/S12: Linear in every phase, vendor and country.
            enumerate_cells(_paper_filter(scenario={Scenario.LINEAR})),
            # S1: HDMI in both opted-in phases.
            enumerate_cells(_paper_filter(
                scenario={Scenario.HDMI},
                phase={Phase.LIN_OIN, Phase.LOUT_OIN})),
            # S9: FAST vs Linear in both countries.
            enumerate_cells(_paper_filter(scenario={Scenario.FAST},
                                          phase={Phase.LIN_OIN})),
            # S2/S11: full UK scenario panels.
            enumerate_cells(_paper_filter(country={Country.UK},
                                          phase={Phase.LIN_OIN})),
        ]
    for check in ALL_CHECKS:
        if check.vendors <= chosen and not check.vendors <= \
                _PAPER_VENDOR_NAMES:
            groups.append([ExperimentSpec(*cell)
                           for cell in check.required_cells])
    for group in groups:
        for spec in group:
            specs.setdefault(spec.label, spec)
    return list(specs.values())


def check_s1_linear_and_hdmi_active(seed: int = cache.DEFAULT_SEED
                                    ) -> Finding:
    """S1: ACR traffic present in Linear and HDMI for every opted-in
    phase, vendor and country."""
    failures = []
    for vendor in paper_vendors():
        for country in Country:
            for phase in (Phase.LIN_OIN, Phase.LOUT_OIN):
                for scenario in (Scenario.LINEAR, Scenario.HDMI):
                    volume = acr_volume_total(
                        _pipe(vendor, country, scenario, phase, seed))
                    if volume < 50.0:
                        failures.append(_cell_evidence(
                            f"{vendor.value}/{country.value}/"
                            f"{scenario.value}/{phase.value}: "
                            f"{volume:.1f}KB",
                            vendor, country, scenario, phase))
    return Finding(
        "S1", "ACR active during Linear and HDMI (incl. dumb-display use)",
        severity="high", confidence=1.0, passed=not failures,
        evidence=_evidence(failures, "all cells show ACR traffic"))


def check_s2_peak_reduction(seed: int = cache.DEFAULT_SEED) -> Finding:
    """S2: restricted-scenario peaks are several-fold smaller (up to ~12x)."""
    figure = build_figure(Vendor.LG, Country.UK, Phase.LIN_OIN, seed)
    ratio = figure.peak_reduction(Scenario.LINEAR, Scenario.OTT)
    passed = ratio >= 3.0
    return Finding(
        "S2", "Linear/HDMI spikes dwarf restricted-scenario spikes",
        severity="high", confidence=0.9, passed=passed,
        evidence=(_cell_evidence(
            f"LG UK Linear/OTT peak ratio = {ratio:.1f}x",
            Vendor.LG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN),))


def check_s3_cadences(seed: int = cache.DEFAULT_SEED) -> Finding:
    """S3: LG ships every ~15 s; Samsung every ~60 s."""
    lg = _pipe(Vendor.LG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN, seed)
    lg_domain = lg.acr_candidate_domains()[0]
    lg_period = analyze_periodicity(
        lg_domain, lg.packets_for(lg_domain)).period_s
    samsung = _pipe(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                    Phase.LIN_OIN, seed)
    fp_domain = "acr-eu-prd.samsungcloud.tv"
    samsung_period = analyze_periodicity(
        fp_domain, samsung.packets_for(fp_domain)).period_s
    passed = (lg_period is not None and 13 <= lg_period <= 17
              and samsung_period is not None
              and 50 <= samsung_period <= 70)
    return Finding(
        "S3", "LG batches every ~15 s, Samsung every ~60 s",
        severity="medium", confidence=0.9, passed=passed,
        evidence=(Evidence(
            text=f"LG period={lg_period}, Samsung period={samsung_period}",
            country=Country.UK.value, phase=Phase.LIN_OIN.value,
            flow=fp_domain),))


def check_s4_samsung_more_chatter(seed: int = cache.DEFAULT_SEED
                                  ) -> Finding:
    """S4: Samsung's log/ingestion endpoints speak more often than LG's
    beacons at the same restricted scenario (higher frequency), while
    LG's single domain dominates raw KB when fingerprinting."""
    lg = _pipe(Vendor.LG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN, seed)
    samsung = _pipe(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                    Phase.LIN_OIN, seed)
    lg_kb = acr_volume_total(lg)
    samsung_kb = acr_volume_total(samsung)
    samsung_domains = len(samsung.acr_candidate_domains())
    passed = lg_kb > samsung_kb and samsung_domains >= 3
    return Finding(
        "S4", "LG ships more raw KB; Samsung spreads over more endpoints",
        severity="medium", confidence=1.0, passed=passed,
        evidence=(Evidence(
            text=f"LG={lg_kb:.0f}KB on 1 domain; Samsung={samsung_kb:.0f}KB "
                 f"on {samsung_domains} domains",
            country=Country.UK.value, phase=Phase.LIN_OIN.value),))


def check_s5_optout_silence(seed: int = cache.DEFAULT_SEED) -> Finding:
    """S5: opting out silences every ACR domain; none appear anew."""
    failures = []
    for vendor in paper_vendors():
        for country in Country:
            opted_in = _pipe(vendor, country, Scenario.LINEAR,
                             Phase.LIN_OIN, seed)
            for phase in (Phase.LIN_OOUT, Phase.LOUT_OOUT):
                opted_out = _pipe(vendor, country, Scenario.LINEAR,
                                  phase, seed)
                comparison = PhaseComparison(
                    "in", opted_in, "out", opted_out)
                if not comparison.b_is_silent:
                    failures.append(_cell_evidence(
                        f"{vendor.value}/{country.value}/"
                        f"{phase.value} still speaks",
                        vendor, country, Scenario.LINEAR, phase))
                if not no_new_acr_domains(opted_in, opted_out):
                    failures.append(_cell_evidence(
                        f"{vendor.value}/{country.value}/"
                        f"{phase.value} new acr domains",
                        vendor, country, Scenario.LINEAR, phase))
    return Finding(
        "S5", "Opt-out stops all ACR traffic; no new ACR domains",
        severity="critical", confidence=1.0, passed=not failures,
        evidence=_evidence(failures, "silent in all 8 cells"))


def check_s6_login_no_effect(seed: int = cache.DEFAULT_SEED
                             ) -> Finding:
    """S6: LIn-OIn vs LOut-OIn: same ACR domain set, similar volumes."""
    failures = []
    for vendor in paper_vendors():
        for country in Country:
            a = _pipe(vendor, country, Scenario.LINEAR, Phase.LIN_OIN,
                      seed)
            b = _pipe(vendor, country, Scenario.LINEAR, Phase.LOUT_OIN,
                      seed)
            comparison = PhaseComparison("LIn-OIn", a, "LOut-OIn", b)
            if not comparison.same_domain_set:
                failures.append(_cell_evidence(
                    f"{vendor.value}/{country.value}: domain sets differ",
                    vendor, country, Scenario.LINEAR, Phase.LOUT_OIN))
            elif not comparison.volumes_similar(tolerance=0.5):
                failures.append(_cell_evidence(
                    f"{vendor.value}/{country.value}: volumes diverge",
                    vendor, country, Scenario.LINEAR, Phase.LOUT_OIN))
    return Finding(
        "S6", "Login status does not affect ACR traffic",
        severity="low", confidence=1.0, passed=not failures,
        evidence=_evidence(failures,
                           "identical domains, similar volumes"))


def check_s7_uk_domain_sets(seed: int = cache.DEFAULT_SEED) -> Finding:
    """S7: the UK domain sets match §4.1."""
    lg = _pipe(Vendor.LG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN,
               seed)
    lg_set = {normalize_rotating(d) for d in lg.acr_candidate_domains()}
    samsung = _pipe(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                    Phase.LIN_OIN, seed)
    samsung_set = set(samsung.acr_candidate_domains())
    expected_samsung = {"acr-eu-prd.samsungcloud.tv",
                        "acr0.samsungcloudsolution.com",
                        "log-config.samsungacr.com",
                        "log-ingestion-eu.samsungacr.com"}
    passed = lg_set == {"eu-acrX.alphonso.tv"} and \
        samsung_set == expected_samsung
    return Finding(
        "S7", "UK: LG uses one rotating Alphonso domain; Samsung uses 4",
        severity="medium", confidence=1.0, passed=passed,
        evidence=(Evidence(
            text=f"LG={sorted(lg_set)}, Samsung={sorted(samsung_set)}",
            country=Country.UK.value, phase=Phase.LIN_OIN.value),))


def check_s8_us_domain_sets(seed: int = cache.DEFAULT_SEED) -> Finding:
    """S8: the US sets use tkacrX / drop the cloudsolution domain."""
    lg = _pipe(Vendor.LG, Country.US, Scenario.LINEAR, Phase.LIN_OIN,
               seed)
    lg_set = {normalize_rotating(d) for d in lg.acr_candidate_domains()}
    samsung = _pipe(Vendor.SAMSUNG, Country.US, Scenario.LINEAR,
                    Phase.LIN_OIN, seed)
    samsung_set = set(samsung.acr_candidate_domains())
    expected_samsung = {"acr-us-prd.samsungcloud.tv",
                        "log-config.samsungacr.com",
                        "log-ingestion.samsungacr.com"}
    passed = lg_set == {"tkacrX.alphonso.tv"} and \
        samsung_set == expected_samsung
    comparison = CountryComparison(
        _pipe(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN,
              seed), samsung)
    passed = passed and comparison.distinct_domain_names
    return Finding(
        "S8", "US: tkacrX for LG; Samsung omits samsungcloudsolution",
        severity="medium", confidence=1.0, passed=passed,
        evidence=(Evidence(
            text=f"LG={sorted(lg_set)}, Samsung={sorted(samsung_set)}",
            country=Country.US.value, phase=Phase.LIN_OIN.value),))


def check_s9_fast_divergence(seed: int = cache.DEFAULT_SEED
                             ) -> Finding:
    """S9: FAST behaves like Linear in the US but not in the UK."""
    evidence = []
    passed = True
    for vendor in paper_vendors():
        uk_fast = acr_volume_total(_pipe(vendor, Country.UK,
                                         Scenario.FAST, Phase.LIN_OIN,
                                         seed))
        uk_linear = acr_volume_total(_pipe(vendor, Country.UK,
                                           Scenario.LINEAR, Phase.LIN_OIN,
                                           seed))
        us_fast = acr_volume_total(_pipe(vendor, Country.US,
                                         Scenario.FAST, Phase.LIN_OIN,
                                         seed))
        us_linear = acr_volume_total(_pipe(vendor, Country.US,
                                           Scenario.LINEAR, Phase.LIN_OIN,
                                           seed))
        uk_ratio = uk_fast / uk_linear
        us_ratio = us_fast / us_linear
        evidence.append(Evidence(
            text=f"{vendor.value}: UK FAST/Linear={uk_ratio:.2f}, "
                 f"US={us_ratio:.2f}",
            vendor=vendor.value, phase=Phase.LIN_OIN.value))
        passed = passed and uk_ratio < 0.3 and us_ratio > 0.7
    return Finding(
        "S9", "US FAST tracked like Linear; UK FAST restricted",
        severity="high", confidence=0.9, passed=passed,
        evidence=tuple(evidence))


def check_s10_geolocation(seed: int = cache.DEFAULT_SEED) -> Finding:
    """S10: endpoint locations and DPF participation match §4.1/§4.3."""
    uk = run_geo_experiment(Country.UK, seed)
    us = run_geo_experiment(Country.US, seed)
    failures = []
    for domain in uk.domains:
        city = uk.city_of(domain)
        if domain.endswith("alphonso.tv") and city != "Amsterdam":
            failures.append(Evidence(text=f"{domain} -> {city}",
                                     country=Country.UK.value,
                                     flow=domain))
        if domain == "acr-eu-prd.samsungcloud.tv" and city != "London":
            failures.append(Evidence(text=f"{domain} -> {city}",
                                     country=Country.UK.value,
                                     flow=domain))
        if domain == "log-config.samsungacr.com" and city != "New York":
            failures.append(Evidence(text=f"{domain} -> {city}",
                                     country=Country.UK.value,
                                     flow=domain))
    for domain in us.domains:
        if us.country_of(domain) != "US":
            failures.append(Evidence(
                text=f"{domain} -> {us.country_of(domain)}",
                country=Country.US.value, flow=domain))
    if not all(uk.dpf_ok.values()):
        failures.append(Evidence(
            text="a vendor is missing from the DPF list"))
    return Finding(
        "S10", "LG UK -> Amsterdam; Samsung UK -> London/Amsterdam/NYC; "
        "US endpoints in US; vendors on DPF",
        severity="medium", confidence=0.75, passed=not failures,
        evidence=_evidence(failures,
                           "all endpoint locations as reported"))


def check_s11_restricted_modes(seed: int = cache.DEFAULT_SEED
                               ) -> Finding:
    """S11: UK OTT and Screen Cast carry only light keep-alive traffic."""
    evidence = []
    passed = True
    for vendor in paper_vendors():
        for scenario in (Scenario.OTT, Scenario.SCREEN_CAST):
            volume = acr_volume_total(_pipe(vendor, Country.UK, scenario,
                                            Phase.LIN_OIN, seed))
            linear = acr_volume_total(_pipe(vendor, Country.UK,
                                            Scenario.LINEAR,
                                            Phase.LIN_OIN, seed))
            evidence.append(_cell_evidence(
                f"{vendor.value}/{scenario.value}: "
                f"{volume:.0f}KB vs linear {linear:.0f}KB",
                vendor, Country.UK, scenario, Phase.LIN_OIN))
            # Paper Table 2 itself gives Samsung OTT/Linear ~= 25%
            # (190.4 / 750.1 KB) — the floor is the always-on telemetry.
            passed = passed and volume < 0.30 * linear
    return Finding(
        "S11", "OTT/cast carry only keep-alive-level ACR traffic (UK)",
        severity="high", confidence=0.9, passed=passed,
        evidence=tuple(evidence))


def check_s12_heuristic_validation(seed: int = cache.DEFAULT_SEED
                                   ) -> Finding:
    """S12: the heuristic's three validations all hold."""
    auditor = AcrDomainAuditor()
    opted_in = _pipe(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                     Phase.LIN_OIN, seed)
    opted_out = _pipe(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                      Phase.LIN_OOUT, seed)
    findings = auditor.audit(opted_in, opted_out)
    failures = [f.domain for f in findings if not f.validated]
    ads = auditor.counterexample_regularity(opted_in)
    irregular_ads = [report for report in ads.values()
                     if not report.regular]
    passed = bool(findings) and not failures and bool(irregular_ads)
    return Finding(
        "S12", "'acr' domains blocklist-confirmed, regular, vanish on "
        "opt-out; ads domains irregular",
        severity="medium", confidence=0.85, passed=passed,
        evidence=(Evidence(
            text=f"{len(findings)} validated; ads contrast: "
                 f"{[r.domain for r in irregular_ads]}",
            country=Country.UK.value),))


# -- extension-vendor findings (registry-declared behaviours) -----------------


def _ext(name: str):
    """The enum member for one extension vendor name."""
    return Vendor(name)


@covers("roku")
def check_x1_roku_burst_gating(seed: int = cache.DEFAULT_SEED
                               ) -> Finding:
    """X1: Roku-style uploads are content-gated bursts, not periodic."""
    roku = _ext("roku")
    linear = _pipe(roku, Country.UK, Scenario.LINEAR, Phase.LIN_OIN, seed)
    hdmi = _pipe(roku, Country.UK, Scenario.HDMI, Phase.LIN_OIN, seed)
    fp = next((d for d in linear.acr_candidate_domains()
               if "ingest" in d), None)
    if fp is None:
        return Finding(
            "X1", "Roku-style SDK uploads burst on content change",
            severity="high", confidence=0.9, passed=False,
            evidence=(_cell_evidence(
                "no ingest domain observed", roku, Country.UK,
                Scenario.LINEAR, Phase.LIN_OIN),))
    cadence = analyze_periodicity(fp, linear.packets_for(fp))
    linear_kb = linear.kilobytes_for(fp)
    hdmi_kb = sum(hdmi.kilobytes_for(d)
                  for d in hdmi.acr_candidate_domains() if "ingest" in d)
    # Static HDMI content (5-minute dwells) must upload far less than
    # linear TV with its show/ad boundaries, and the channel must not
    # look like a fixed-period upload loop.
    passed = linear_kb > 2 * max(hdmi_kb, 0.1) and not cadence.regular
    return Finding(
        "X1", "Roku-style SDK uploads burst on content change",
        severity="high", confidence=0.9, passed=passed,
        evidence=(Evidence(
            text=f"linear ingest={linear_kb:.0f}KB, hdmi "
                 f"ingest={hdmi_kb:.0f}KB, linear cadence "
                 f"regular={cadence.regular}",
            vendor=roku.value, country=Country.UK.value,
            phase=Phase.LIN_OIN.value, flow=fp),))


check_x1_roku_burst_gating.required_cells = [
    (Vendor("roku"), Country.UK, Scenario.LINEAR, Phase.LIN_OIN),
    (Vendor("roku"), Country.UK, Scenario.HDMI, Phase.LIN_OIN),
]


@covers("roku")
def check_x2_roku_optout_downsamples(seed: int = cache.DEFAULT_SEED
                                     ) -> Finding:
    """X2: Roku-style opt-out reduces — but never silences — uploads."""
    roku = _ext("roku")
    opted_in = _pipe(roku, Country.UK, Scenario.LINEAR, Phase.LIN_OIN,
                     seed)
    opted_out = _pipe(roku, Country.UK, Scenario.LINEAR, Phase.LIN_OOUT,
                      seed)
    in_kb = acr_volume_total(opted_in)
    out_kb = acr_volume_total(opted_out)
    passed = (out_kb > 0
              and out_kb < 0.5 * in_kb
              and no_new_acr_domains(opted_in, opted_out))
    return Finding(
        "X2", "Roku-style opt-out only downsamples ACR traffic",
        severity="critical", confidence=1.0, passed=passed,
        evidence=(_cell_evidence(
            f"opted-in={in_kb:.0f}KB, opted-out={out_kb:.0f}KB "
            f"({100 * out_kb / in_kb if in_kb else 0:.0f}%)",
            roku, Country.UK, Scenario.LINEAR, Phase.LIN_OOUT),))


check_x2_roku_optout_downsamples.required_cells = [
    (Vendor("roku"), Country.UK, Scenario.LINEAR, Phase.LIN_OIN),
    (Vendor("roku"), Country.UK, Scenario.LINEAR, Phase.LIN_OOUT),
]


@covers("roku")
def check_x3_roku_sdk_config_unconditional(
        seed: int = cache.DEFAULT_SEED) -> Finding:
    """X3: the third-party SDK config channel survives a full opt-out."""
    roku = _ext("roku")
    opted_out = _pipe(roku, Country.UK, Scenario.LINEAR, Phase.LOUT_OOUT,
                      seed)
    cfg = [d for d in opted_out.acr_candidate_domains() if "cfg" in d]
    passed = bool(cfg) and all(
        opted_out.kilobytes_for(d) > 0 for d in cfg)
    return Finding(
        "X3", "Roku-style SDK config channel ignores the opt-out",
        severity="critical", confidence=1.0, passed=passed,
        evidence=(_cell_evidence(
            f"config domains in LOut-OOut: {cfg or 'none'}",
            roku, Country.UK, Scenario.LINEAR, Phase.LOUT_OOUT),))


check_x3_roku_sdk_config_unconditional.required_cells = [
    (Vendor("roku"), Country.UK, Scenario.LINEAR, Phase.LOUT_OOUT),
]


@covers("vizio")
def check_x4_vizio_continuous_cadence(seed: int = cache.DEFAULT_SEED
                                      ) -> Finding:
    """X4: Vizio-style fingerprinting is a continuous 10 s drizzle (US)."""
    vizio = _ext("vizio")
    us = _pipe(vizio, Country.US, Scenario.LINEAR, Phase.LIN_OIN, seed)
    domains = us.acr_candidate_domains()
    if not domains:
        return Finding(
            "X4", "Vizio-style continuous 10 s fingerprint cadence (US)",
            severity="high", confidence=0.9, passed=False,
            evidence=(_cell_evidence(
                "no acr domains observed", vizio, Country.US,
                Scenario.LINEAR, Phase.LIN_OIN),))
    report = analyze_periodicity(domains[0], us.packets_for(domains[0]))
    passed = (report.regular and report.period_s is not None
              and 8 <= report.period_s <= 12)
    return Finding(
        "X4", "Vizio-style continuous 10 s fingerprint cadence (US)",
        severity="high", confidence=0.9, passed=passed,
        evidence=(Evidence(
            text=f"{domains[0]}: period={report.period_s}, "
                 f"CV={report.cv}",
            vendor=vizio.value, country=Country.US.value,
            phase=Phase.LIN_OIN.value, flow=domains[0]),))


check_x4_vizio_continuous_cadence.required_cells = [
    (Vendor("vizio"), Country.US, Scenario.LINEAR, Phase.LIN_OIN),
]


@covers("vizio")
def check_x5_vizio_consent_default(seed: int = cache.DEFAULT_SEED
                                   ) -> Finding:
    """X5: the UK consent default keeps even 'opted-in' phases quiet."""
    vizio = _ext("vizio")
    uk = _pipe(vizio, Country.UK, Scenario.LINEAR, Phase.LIN_OIN, seed)
    us = _pipe(vizio, Country.US, Scenario.LINEAR, Phase.LIN_OIN, seed)
    uk_kb = acr_volume_total(uk)
    us_kb = acr_volume_total(us)
    passed = us_kb > 100.0 and uk_kb < 0.25 * us_kb
    return Finding(
        "X5", "Vizio-style country consent default (UK ships opted out)",
        severity="high", confidence=1.0, passed=passed,
        evidence=(Evidence(
            text=f"UK LIn-OIn={uk_kb:.0f}KB vs US LIn-OIn={us_kb:.0f}KB",
            vendor=vizio.value, phase=Phase.LIN_OIN.value),))


check_x5_vizio_consent_default.required_cells = [
    (Vendor("vizio"), Country.UK, Scenario.LINEAR, Phase.LIN_OIN),
    (Vendor("vizio"), Country.US, Scenario.LINEAR, Phase.LIN_OIN),
]


@covers("vizio")
def check_x6_vizio_shared_endpoint(seed: int = cache.DEFAULT_SEED
                                   ) -> Finding:
    """X6: the shared second-party endpoint stays warm without ACR.

    In the UK the consent default disables fingerprinting, yet the
    ``acr-…`` hostname still appears in captures because the ad stack
    rides the same endpoint — domain presence alone cannot certify ACR.
    """
    vizio = _ext("vizio")
    uk = _pipe(vizio, Country.UK, Scenario.LINEAR, Phase.LIN_OIN, seed)
    domains = uk.acr_candidate_domains()
    kb = sum(uk.kilobytes_for(d) for d in domains)
    passed = bool(domains) and kb > 0
    return Finding(
        "X6", "Vizio-style shared ad/ACR endpoint stays warm sans ACR",
        severity="medium", confidence=1.0, passed=passed,
        evidence=(_cell_evidence(
            f"UK LIn-OIn acr-named domains={domains}, {kb:.0f}KB",
            vizio, Country.UK, Scenario.LINEAR, Phase.LIN_OIN),))


check_x6_vizio_shared_endpoint.required_cells = [
    (Vendor("vizio"), Country.UK, Scenario.LINEAR, Phase.LIN_OIN),
]


_S_CHECKS: List[Callable[..., Finding]] = [
    check_s1_linear_and_hdmi_active,
    check_s2_peak_reduction,
    check_s3_cadences,
    check_s4_samsung_more_chatter,
    check_s5_optout_silence,
    check_s6_login_no_effect,
    check_s7_uk_domain_sets,
    check_s8_us_domain_sets,
    check_s9_fast_divergence,
    check_s10_geolocation,
    check_s11_restricted_modes,
    check_s12_heuristic_validation,
]
for _check in _S_CHECKS:
    paper_finding(_check)

ALL_CHECKS: List[Callable[..., Finding]] = _S_CHECKS + [
    check_x1_roku_burst_gating,
    check_x2_roku_optout_downsamples,
    check_x3_roku_sdk_config_unconditional,
    check_x4_vizio_continuous_cadence,
    check_x5_vizio_consent_default,
    check_x6_vizio_shared_endpoint,
]


def _chosen_vendors(vendors: Optional[Iterable[str]]) -> Set[str]:
    if vendors is None:
        return {member.value for member in Vendor}
    chosen = set(vendors)
    if not chosen:
        raise ValueError("empty vendor selection")
    unknown = chosen - {member.value for member in Vendor}
    if unknown:
        raise ValueError(f"unknown vendors: {sorted(unknown)}")
    return chosen


def selected_checks(vendors: Optional[Iterable[str]] = None
                    ) -> List[Callable[..., Finding]]:
    """The checks whose full vendor coverage fits the selection.

    An empty result is an error, never a silent no-op: "verified
    nothing, exit 0" must be unreachable from the CLI.
    """
    chosen = _chosen_vendors(vendors)
    checks = [check for check in ALL_CHECKS if check.vendors <= chosen]
    if not checks:
        raise ValueError(
            f"no findings cover vendors {sorted(chosen)} — the paper "
            f"findings S1-S12 need samsung and lg selected together")
    return checks


def run_all_checks(seed: int = cache.DEFAULT_SEED,
                   jobs: Optional[int] = None,
                   vendors: Optional[Iterable[str]] = None
                   ) -> List[Finding]:
    """The scorecard for the selected vendors (default: every vendor).

    ``jobs > 1`` prefetches every required cell on a process pool (and
    through the on-disk cache) before the checks read them serially, so
    the verdicts are identical to a serial run.  Restricting ``vendors``
    to the paper pair reproduces the S1-S12 scorecard byte for byte.
    """
    if jobs and jobs > 1:
        cache.grid(seed).ensure(required_specs(vendors), jobs=jobs)
    return [check(seed) for check in selected_checks(vendors)]


def ledger_from_checks(checks: Iterable[Finding]) -> FindingsLedger:
    """A ledger over one scorecard run (passes and failures both)."""
    return FindingsLedger(checks)


def render_checks(checks: List[Finding]) -> str:
    """The canonical plain-text scorecard.

    Shared by the CLI and the golden-corpus pins so "byte-identical
    scorecard" is one representation, not two print loops.  The status
    line is :meth:`Finding.status_line` — the same formatter behind
    ``repr()`` — so the two can never drift.  An empty selection
    renders as the empty string, not a phantom blank line.
    """
    if not checks:
        return ""
    lines = []
    for check in checks:
        lines.append(check.status_line())
        lines.append(f"       {check.evidence_text()}")
    return "\n".join(lines) + "\n"
