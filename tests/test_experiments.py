"""End-to-end tests for the per-figure drivers and the findings scorecard.

These are the reproduction's acceptance tests: every shape target from
DESIGN.md (S1-S12) must hold on real one-hour captures.  The shared
experiment cache keeps the total number of simulated hours bounded.
"""

import tracemalloc

import pytest

from repro.experiments import (build_figure, comparison_rows,
                               run_geo_experiment, table2, table4,
                               transmitted_curve)
from repro.experiments import findings as findings_mod
from repro.experiments.fig_timelines import (SCENARIO_LABELS,
                                             TimelineFigure, acr_timeline)
from repro.experiments.tables_volumes import SCENARIO_NAMES
from repro.experiments import cache
from repro.experiments.geolocation import observed_acr_domains
from repro.geo.audit import GeolocationAudit
from repro.sim.rng import RngRegistry
from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,
                           Vendor, paper_vendors, run_experiment)
from timeline_oracle import from_counts


class TestTimelineFigures:
    def test_figure4_panels(self):
        lg, samsung = [build_figure(vendor, Country.UK, Phase.LIN_OIN)
                       for vendor in (Vendor.LG, Vendor.SAMSUNG)]
        assert lg.vendor is Vendor.LG
        assert samsung.vendor is Vendor.SAMSUNG
        assert set(lg.timelines) == set(Scenario)

    def test_linear_and_hdmi_spike_hardest_lg_uk(self):
        figure = build_figure(Vendor.LG, Country.UK)
        active = {Scenario.LINEAR, Scenario.HDMI}
        restricted = set(Scenario) - active
        min_active = min(figure.timelines[s].total_packets
                         for s in active)
        max_restricted = max(figure.timelines[s].total_packets
                             for s in restricted)
        assert min_active > 3 * max_restricted

    def test_peak_reduction_several_fold(self):
        figure = build_figure(Vendor.LG, Country.UK)
        ratio = figure.peak_reduction(Scenario.LINEAR, Scenario.OTT)
        assert 3.0 <= ratio <= 20.0

    def test_us_fast_spikes_like_linear(self):
        figure = build_figure(Vendor.LG, Country.US)
        fast = figure.timelines[Scenario.FAST].total_packets
        linear = figure.timelines[Scenario.LINEAR].total_packets
        assert fast > 0.7 * linear

    def test_acr_timeline_window_is_10_minutes(self):
        spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.LINEAR,
                              Phase.LIN_OIN)
        timeline = acr_timeline(cache.pipeline_for(spec))
        assert timeline.duration_ns == 10 * 60 * 10 ** 9

    def test_panel_holds_no_empty_bins(self):
        # Warm the panel's six pipelines first: what the second build
        # allocates is the timelines alone.  Dense per-millisecond
        # arrays would hold 6 x 600,000 int64 bins (27.5 MiB).
        build_figure(Vendor.LG, Country.UK)
        tracemalloc.start()
        try:
            figure = build_figure(Vendor.LG, Country.UK)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(figure.timelines) == 6
        assert held < 64 * 1024
        assert peak < 1024 * 1024


class TestTimelineFigurePanel:
    """The panel's own arithmetic, on timelines stated bin by bin."""

    @staticmethod
    def _panel(peaks):
        return TimelineFigure(Vendor.LG, Country.UK, Phase.LIN_OIN, {
            scenario: from_counts([0, peaks.get(scenario, 1), 0])
            for scenario in Scenario})

    def test_peak_reduction_is_the_ratio_of_peaks(self):
        panel = self._panel({Scenario.LINEAR: 12, Scenario.OTT: 3})
        assert panel.peak(Scenario.LINEAR) == 12
        assert panel.peak_reduction(Scenario.LINEAR, Scenario.OTT) == 4.0

    def test_peak_reduction_over_a_silent_scenario_is_infinite(self):
        panel = self._panel({Scenario.LINEAR: 5, Scenario.OTT: 0})
        assert panel.peak_reduction(Scenario.LINEAR, Scenario.OTT) == \
            float("inf")

    def test_repr_names_the_panel(self):
        assert repr(self._panel({})) == \
            "TimelineFigure(lg/uk/LIn-OIn, 6 scenarios)"

    def test_every_scenario_has_a_distinct_label(self):
        assert set(SCENARIO_LABELS) == set(Scenario)
        assert len(set(SCENARIO_LABELS.values())) == len(Scenario)


class TestCdfFigures:
    def test_curves_nonempty_for_active_scenarios(self):
        spec = ExperimentSpec(Vendor.SAMSUNG, Country.UK,
                              Scenario.LINEAR, Phase.LIN_OIN)
        curve = transmitted_curve(spec)
        assert curve.total_bytes > 100_000

    def test_lg_transfers_every_15s_samsung_every_60s(self):
        """Cadence on the fingerprint channel (Samsung's aggregate CDF
        mixes four endpoints, so the batch cadence is measured on
        acr-eu-prd alone)."""
        from repro.analysis import median_step_interval_s
        lg_curve = transmitted_curve(ExperimentSpec(
            Vendor.LG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN))
        samsung_curve = transmitted_curve(
            ExperimentSpec(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                           Phase.LIN_OIN),
            domains=["acr-eu-prd.samsungcloud.tv"])
        assert 13 <= median_step_interval_s(lg_curve) <= 17
        assert 50 <= median_step_interval_s(samsung_curve) <= 70

    def test_figure5_has_all_curves(self):
        curves = {(vendor, scenario, phase): transmitted_curve(
                      ExperimentSpec(vendor, Country.UK, scenario, phase))
                  for vendor in paper_vendors() for scenario in Scenario
                  for phase in (Phase.LIN_OIN, Phase.LOUT_OIN)}
        assert len(curves) == 2 * 6 * 2  # vendor x scenario x phase

    def test_login_phases_similar_in_cdf(self):
        lin, lout = (transmitted_curve(ExperimentSpec(
            Vendor.LG, Country.UK, Scenario.LINEAR, phase)).total_bytes
            / 1000 for phase in (Phase.LIN_OIN, Phase.LOUT_OIN))
        assert lin == pytest.approx(lout, rel=0.25)


class TestVolumeTables:
    def test_table2_shape_matches_paper(self):
        table = table2()
        # Every paper row exists and Antenna dominates for LG.
        assert "eu-acrX.alphonso.tv" in table.domains
        antenna = table.kilobytes("eu-acrX.alphonso.tv", "Antenna")
        idle = table.kilobytes("eu-acrX.alphonso.tv", "Idle")
        assert antenna > 10 * idle

    def test_table2_within_2x_of_paper(self):
        """Every non-dash paper cell is reproduced within 2x."""
        table = table2()
        rows = comparison_rows(table, Country.UK, Phase.LIN_OIN)
        for domain, scenario, paper, measured in rows:
            if paper == "-" or measured == "-":
                continue
            ratio = float(measured) / float(paper)
            assert 0.5 <= ratio <= 2.0, \
                f"{domain}/{scenario}: paper={paper} measured={measured}"

    def test_table4_us_fast_like_antenna(self):
        table = table4()
        fast = table.kilobytes("tkacrX.alphonso.tv", "FAST")
        antenna = table.kilobytes("tkacrX.alphonso.tv", "Antenna")
        assert fast == pytest.approx(antenna, rel=0.2)

    def test_table4_samsung_silent_cells(self):
        table = table4()
        for scenario in ("Idle", "OTT", "Screen Cast"):
            cell = table.cell("acr-us-prd.samsungcloud.tv", scenario)
            assert cell is None or not cell.present


def _fields(value):
    """A slotted object as nested plain values, field by field."""
    if isinstance(value, list):
        return [_fields(item) for item in value]
    slots = getattr(type(value), "__slots__", None)
    if not slots:
        return value
    return (type(value).__name__,) + tuple(
        _fields(getattr(value, name)) for name in slots)


def _geo_from_simulated_cell(country, seed):
    """S10's former path, kept as the oracle: simulate the LG Linear
    cell and locate against the registry and zone its capture ran on."""
    result = run_experiment(ExperimentSpec(
        Vendor.LG, country, Scenario.LINEAR, Phase.LIN_OIN), seed=seed)
    resolver = result.zone
    audit = GeolocationAudit(
        result.registry.ipspace, RngRegistry(seed).fork("geo"),
        ptr_lookup=lambda address: (
            resolver.lookup_ptr(address).target_name
            if resolver.lookup_ptr(address) else None))
    findings, dpf_ok = {}, {}
    for domain in observed_acr_domains(country, seed):
        address = result.registry.server(domain).address
        findings[domain] = audit.locate(address, country.vantage, domain)
        provider = result.registry.record(domain).provider
        dpf_ok[domain] = audit.transfer_allowed(provider)
    return findings, dpf_ok


def _assert_geo_matches_oracle(country, seed):
    experiment = run_geo_experiment(country, seed)
    findings, dpf_ok = _geo_from_simulated_cell(country, seed)
    assert experiment.domains == sorted(findings)
    assert {domain: _fields(finding)
            for domain, finding in experiment.findings.items()} == \
        {domain: _fields(finding) for domain, finding in findings.items()}
    assert experiment.dpf_ok == dpf_ok


class TestGeoExperiment:
    @pytest.mark.parametrize("country", [Country.UK, Country.US])
    def test_catalog_matches_simulated_cell(self, country):
        _assert_geo_matches_oracle(country, cache.DEFAULT_SEED)

    @pytest.mark.slow
    def test_catalog_matches_simulated_cell_seeds_1_to_10(self,
                                                          monkeypatch):
        # Other seeds replace the process-wide grid; restore it after.
        monkeypatch.setattr(cache, "_grid", None)
        for seed in range(1, 11):
            for country in (Country.UK, Country.US):
                _assert_geo_matches_oracle(country, seed)

    def test_uk_findings(self):
        experiment = run_geo_experiment(Country.UK)
        lg_domains = [d for d in experiment.domains
                      if d.endswith("alphonso.tv")]
        assert lg_domains
        for domain in lg_domains:
            assert experiment.city_of(domain) == "Amsterdam"
        assert experiment.city_of("log-config.samsungacr.com") == \
            "New York"
        assert all(experiment.dpf_ok.values())

    def test_us_endpoints_all_in_us(self):
        experiment = run_geo_experiment(Country.US)
        for domain in experiment.domains:
            assert experiment.country_of(domain) == "US", domain


@pytest.mark.parametrize("check", findings_mod.ALL_CHECKS,
                         ids=lambda c: c.__name__)
def test_finding_check(check):
    """Every paper finding (S1-S12) holds on the simulated testbed."""
    result = check()
    assert result.passed, f"{result.code}: {result.evidence_text()}"


class TestS12AcrossSeeds:
    """S12 scores contacts — packets carrying payload — so the 54-byte
    FIN/ACK teardown at the end of the hour is not one more contact."""

    @pytest.fixture(autouse=True)
    def own_grid(self, monkeypatch):
        # Other seeds replace the process-wide grid; restore it after.
        monkeypatch.setattr(cache, "_grid", None)

    def test_teardown_after_last_upload_is_not_a_contact(self):
        # Seed 5's last acr0 upload lands 14.9 s before the teardown,
        # which read as a 13th burst and pushed the interval CV to 0.29.
        from repro.analysis import AcrDomainAuditor
        opted_in = cache.grid(5).pipeline(ExperimentSpec(
            Vendor.SAMSUNG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN))
        cadence = {finding.domain: finding.periodicity
                   for finding in AcrDomainAuditor().audit(opted_in)}
        acr0 = cadence["acr0.samsungcloudsolution.com"]
        assert acr0.bursts == 12 and acr0.regular
        result = findings_mod.check_s12_heuristic_validation(seed=5)
        assert result.passed, result.evidence_text()

    @pytest.mark.slow
    def test_passes_on_seeds_1_to_30(self):
        failing = [seed for seed in range(1, 31)
                   if not findings_mod.check_s12_heuristic_validation(
                       seed).passed]
        assert failing == []
