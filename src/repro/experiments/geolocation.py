"""§4.1/§4.3 geolocation experiment.

Workflow exactly as the paper: take the ACR domains observed in captures,
geolocate their addresses with MaxMind and IP2Location, arbitrate
disagreements via traceroute + RIPE IPmap, then check the operators
against the DPF list.
"""

from __future__ import annotations

from typing import Dict, List

from ..dnsinfra.registry import DomainRegistry
from ..dnsinfra.zones import Zone
from ..geo.audit import GeolocationAudit, GeolocationFinding
from ..sim.rng import RngRegistry
from ..testbed.experiment import (Country, ExperimentSpec, Phase, Scenario,
                                  paper_vendors)
from . import cache


class GeoExperiment:
    """Geolocation findings for every observed ACR domain in one country."""

    def __init__(self, country: Country,
                 findings: Dict[str, GeolocationFinding],
                 dpf_ok: Dict[str, bool]) -> None:
        self.country = country
        self.findings = findings
        self.dpf_ok = dpf_ok

    def city_of(self, domain: str) -> str:
        finding = self.findings[domain]
        return finding.city.name if finding.city else "unknown"

    def country_of(self, domain: str) -> str:
        finding = self.findings[domain]
        return finding.country or "unknown"

    @property
    def domains(self) -> List[str]:
        return sorted(self.findings)

    def __repr__(self) -> str:
        return (f"GeoExperiment({self.country.value}, "
                f"{len(self.findings)} domains)")


def observed_acr_domains(country: Country,
                         seed: int = cache.DEFAULT_SEED) -> List[str]:
    """ACR candidates across the paper vendors' Linear captures (the
    scenario where every ACR channel is active)."""
    domains: List[str] = []
    for vendor in paper_vendors():
        spec = ExperimentSpec(vendor, country, Scenario.LINEAR,
                              Phase.LIN_OIN)
        pipeline = cache.grid(seed).pipeline(spec)
        domains.extend(pipeline.acr_candidate_domains())
    return sorted(set(domains))


def run_geo_experiment(country: Country,
                       seed: int = cache.DEFAULT_SEED) -> GeoExperiment:
    """Locate every observed ACR endpoint from this country's vantage."""
    # The simulated Internet every capture runs against (servers, their
    # addresses and PTR names) is a pure function of the vendor catalog,
    # so the geolocation tools are built from the catalog directly: the
    # domains come from the captures alone, and no cell is simulated.
    registry = DomainRegistry()
    resolver = Zone(registry)
    audit = GeolocationAudit(
        registry.ipspace, RngRegistry(seed).fork("geo"),
        ptr_lookup=lambda address: (
            resolver.lookup_ptr(address).target_name
            if resolver.lookup_ptr(address) else None))
    findings: Dict[str, GeolocationFinding] = {}
    dpf_ok: Dict[str, bool] = {}
    for domain in observed_acr_domains(country, seed):
        address = registry.server(domain).address
        findings[domain] = audit.locate(address, country.vantage, domain)
        provider = registry.record(domain).provider
        dpf_ok[domain] = audit.transfer_allowed(provider)
    return GeoExperiment(country, findings, dpf_ok)
