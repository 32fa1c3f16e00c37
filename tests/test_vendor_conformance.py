"""Differential vendor-conformance suite.

For every registered vendor x country x phase, run one Linear capture
and evaluate the *registry-declared* contract — expected ACR endpoint
set, cadence (or burstiness), consent default, opt-out effect — against
what the analysis pipeline actually measures (the same machinery that
regenerates Tables 1-5).  The contract clauses live in
``tests/conformance_oracle.py`` and come back as structured ``Finding``
objects; this suite asserts every one of them passes, so a vendor
plugin whose declared contract drifts from its simulated behaviour
fails here, not in production.

Also enforces the registry's core invariant by grepping the source tree:
no module outside ``repro/tv/vendors`` may compare against a vendor name
or key a dispatch table on one.
"""

import functools
import os
import re

import pytest

from conformance_oracle import (cell_findings, conformance_reference_kb,
                                optout_findings)
from repro.experiments import cache as experiment_cache
from repro.findings import FindingsLedger
from repro.sim.clock import minutes
from repro.testbed import run_experiment, validate
from repro.testbed.experiment import (Country, ExperimentSpec, Phase,
                                      Scenario, Vendor, paper_vendors,
                                      vendor_profile_of)
from repro.tv import vendors
from repro.tv.settings import PrivacySettings

SEED = 7
#: Long enough for ~11 Samsung batches / ~70 Vizio batches, short enough
#: that the 32-cell matrix stays a test, not a campaign.
CONFORMANCE_DURATION_NS = minutes(12)

ALL_CELLS = [(vendor, country, phase)
             for vendor in Vendor
             for country in Country
             for phase in Phase]


def _pipeline(vendor: Vendor, country: Country, phase: Phase):
    spec = ExperimentSpec(vendor, country, Scenario.LINEAR, phase,
                          duration_ns=CONFORMANCE_DURATION_NS)
    return experiment_cache.grid(SEED).pipeline(spec)


def _full_reference_kb(vendor: Vendor) -> float:
    """The vendor's richest opted-in Linear volume across countries.

    The reference for downsample/ads-only comparisons; cross-country
    because a consent default can leave one country with no FULL cell at
    any phase (the Vizio-style UK default).
    """
    return conformance_reference_kb(
        vendor_profile_of(vendor),
        {country: _pipeline(vendor, country, Phase.LIN_OIN)
         for country in Country})


def _assert_all_passed(findings) -> None:
    failed = [finding for finding in findings if not finding.passed]
    assert not failed, "\n".join(
        f"{finding.status_line()} -- {finding.evidence_text()}"
        for finding in failed)


# -- registry sanity -----------------------------------------------------------


class TestRegistry:
    def test_four_vendors_registered_in_order(self):
        assert vendors.vendor_names() == ["samsung", "lg", "roku", "vizio"]
        assert vendors.paper_vendor_names() == ["samsung", "lg"]
        assert [v.value for v in Vendor] == vendors.vendor_names()

    def test_catalog_order_is_total_and_paper_first(self):
        orders = [profile.catalog_order
                  for profile in vendors.catalog_profiles()]
        assert orders == sorted(orders) and len(set(orders)) == len(orders)
        # The paper pair allocated its IP blocks first; extension vendors
        # must never displace those allocations (cached captures pin
        # them byte for byte).
        extension_orders = [profile.catalog_order
                            for profile in vendors.catalog_profiles()
                            if not profile.audited_in_paper]
        paper_orders = [profile.catalog_order
                        for profile in vendors.catalog_profiles()
                        if profile.audited_in_paper]
        assert max(paper_orders) < min(extension_orders)

    def test_profiles_are_complete(self):
        for profile in vendors.catalog_profiles():
            for country in profile.countries:
                assert profile.acr_profiles[country].vendor == profile.name
                assert profile.services(country)
                records = profile.domains(country)
                assert any(record.role == "acr-fingerprint"
                           for record in records)
                # The declared fingerprint domain is in the catalog.
                fingerprint = profile.fingerprint_domain(country, 0, SEED)
                assert any(record.name == fingerprint
                           for record in records)

    def test_unknown_vendor_raises_with_catalog(self):
        with pytest.raises(KeyError, match="unknown vendor: 'philips'"):
            vendors.get("philips")

    def test_duplicate_registration_rejected(self):
        existing = vendors.get("samsung")
        clone = vendors.VendorProfile(
            name="samsung", display_name="imposter",
            device_class=existing.device_class, serial_prefix="XX",
            operator="x", fast_app_id="x",
            opt_out_options=existing.opt_out_options,
            ads_limiter_key=existing.ads_limiter_key,
            services=existing.services,
            acr_profiles=existing.acr_profiles,
            capture_decisions=existing.capture_decisions,
            domains=existing.domains, contract=existing.contract,
            catalog_order=99,
            fingerprint_domains=existing.fingerprint_domains)
        with pytest.raises(ValueError, match="already registered"):
            vendors.register(clone)

    def test_consent_defaults(self):
        assert vendor_profile_of(Vendor("vizio")).default_optin("uk") \
            is False
        assert vendor_profile_of(Vendor("vizio")).default_optin("us") \
            is True
        for vendor in paper_vendors():
            profile = vendor_profile_of(vendor)
            assert profile.default_optin("uk") and \
                profile.default_optin("us")

    def test_settings_follow_consent_default(self):
        assert PrivacySettings("vizio", "uk").acr_enabled is False
        assert PrivacySettings("vizio", "us").acr_enabled is True
        assert PrivacySettings("vizio").acr_enabled is True
        assert PrivacySettings("samsung", "uk").acr_enabled is True


# -- the grep-enforced plugin invariant ---------------------------------------

_VENDOR_NAMES = "samsung|lg|roku|vizio"
_ENUM_NAMES = "SAMSUNG|LG|ROKU|VIZIO"

#: Vendor-identity dispatch patterns banned outside the vendors package:
#: equality/identity comparisons against a vendor name and dict literals
#: keyed by one.  Domain strings ("samsungacr.com") and cell selections
#: (``_pipe(Vendor.LG, ...)``) are not dispatch and stay legal.
_BANNED_PATTERNS = [
    re.compile(rf"(==|!=)\s*[\"']({_VENDOR_NAMES})[\"']"),
    re.compile(rf"[\"']({_VENDOR_NAMES})[\"']\s*(==|!=)"),
    re.compile(rf"[\"']({_VENDOR_NAMES})[\"']\s*:"),
    re.compile(rf"(\bis\b|==|!=)\s+Vendor\.({_ENUM_NAMES})\b"),
    re.compile(rf"Vendor\.({_ENUM_NAMES})\s+(is|==|!=)\b"),
]


class TestNoVendorDispatchOutsideRegistry:
    def test_source_tree_is_clean(self):
        import repro
        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        allowed_prefix = os.path.join(package_root, "tv", "vendors")
        violations = []
        for directory, __, names in sorted(os.walk(package_root)):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                if path.startswith(allowed_prefix):
                    continue
                with open(path, "r", encoding="utf-8") as fileobj:
                    for number, line in enumerate(fileobj, 1):
                        for pattern in _BANNED_PATTERNS:
                            if pattern.search(line):
                                violations.append(
                                    f"{os.path.relpath(path, package_root)}"
                                    f":{number}: {line.strip()}")
        assert not violations, (
            "vendor-name dispatch outside repro.tv.vendors:\n"
            + "\n".join(violations))


# -- the differential conformance matrix --------------------------------------


@pytest.mark.slow
class TestConformanceMatrix:
    """Registry-declared contract vs measured capture, cell by cell.

    The contract clauses are evaluated by
    ``tests/conformance_oracle.py`` into structured findings; each cell
    must come back non-empty with every finding passed.
    """

    @pytest.mark.parametrize(
        "vendor,country,phase",
        ALL_CELLS,
        ids=[f"{v.value}-{c.value}-{p.value}" for v, c, p in ALL_CELLS])
    def test_cell_matches_declared_activity(self, vendor, country, phase):
        profile = vendor_profile_of(vendor)
        findings = cell_findings(
            profile, country.value, phase,
            _pipeline(vendor, country, phase),
            reference_kb=_full_reference_kb(vendor), seed=SEED)
        assert findings, (f"{vendor.value}/{country.value}/"
                          f"{phase.value} produced no contract findings")
        assert all(finding.code.startswith("CONF-")
                   for finding in findings)
        # Every cell carries at least the activity-class verdict, with
        # the measured endpoint set pinned in its evidence pointers.
        assert findings[0].code == "CONF-ACTIVITY"
        assert findings[0].evidence[0].vendor == vendor.value
        assert findings[0].evidence[0].country == country.value
        assert findings[0].evidence[0].phase == phase.value
        _assert_all_passed(findings)

    def test_optout_differential_is_contractual(self):
        """Opt-out semantics: silence vendors vanish, downsample vendors
        shrink, shared-endpoint vendors leave ad residue — and the whole
        differential folds into one clean ledger."""
        ledger = FindingsLedger()
        for vendor in Vendor:
            profile = vendor_profile_of(vendor)
            for country in Country:
                findings = optout_findings(
                    profile, country.value,
                    _pipeline(vendor, country, Phase.LIN_OIN),
                    _pipeline(vendor, country, Phase.LOUT_OOUT))
                assert len(findings) == 2
                assert all(finding.code == "CONF-OPTOUT"
                           for finding in findings)
                _assert_all_passed(findings)
                ledger.extend(findings)
        assert not ledger.failed()
        # 4 vendors x 2 countries x 2 clauses, all distinct records.
        assert ledger.total() == 16


@functools.lru_cache(maxsize=None)
def _acr_stats(vendor: str, country: Country, phase: Phase):
    """The TV's own ACR client counters for one Linear cell: ground
    truth the capture does not carry, so the cell is simulated here."""
    spec = ExperimentSpec(Vendor(vendor), country, Scenario.LINEAR, phase,
                          duration_ns=CONFORMANCE_DURATION_NS)
    result = run_experiment(spec, seed=SEED)
    report = validate(result)
    assert report.ok, report.failures
    return result.acr_stats


@pytest.mark.slow
class TestDeviceLevelContracts:
    """White-box checks the black-box pipeline cannot see."""

    def test_roku_bursts_and_gating_counters(self):
        stats = _acr_stats("roku", Country.UK, Phase.LIN_OIN)
        assert stats.burst_uploads > 0
        assert stats.content_gated_slots > 0
        assert stats.downsampled_batches == 0

    def test_roku_optout_downsample_counters(self):
        stats = _acr_stats("roku", Country.UK, Phase.LIN_OOUT)
        assert stats.downsampled_batches > 0
        assert stats.burst_uploads == 0
        assert stats.beacons == 0
        assert stats.disabled_slots > stats.downsampled_batches

    def test_vizio_uk_consent_default_silences_client(self):
        stats = _acr_stats("vizio", Country.UK, Phase.LIN_OIN)
        assert stats.full_batches == 0 and stats.beacons == 0

    def test_paper_vendors_unaffected_by_new_client_knobs(self):
        for vendor in paper_vendors():
            stats = _acr_stats(vendor.value, Country.UK, Phase.LIN_OIN)
            assert stats.burst_uploads == 0
            assert stats.content_gated_slots == 0
            assert stats.downsampled_batches == 0
