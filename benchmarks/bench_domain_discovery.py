"""§4.1/§4.3 domain discovery: which ACR domains each TV contacts.

Regenerates the domain sets from the boot-burst DNS in the captures and
asserts the exact sets the paper reports, including the LG rotation
scheme and the US/UK naming differences.
"""

from conftest import once

from repro.analysis import normalize_rotating
from repro.experiments import cache, observed_acr_domains
from repro.reporting import render_table
from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,
                           Vendor)


def discover():
    out = {}
    for country in Country:
        out[country] = observed_acr_domains(country)
    return out


def test_domain_discovery(benchmark, uk_opted_in_cells,
                          us_opted_in_cells):
    observed = once(benchmark, discover)
    rows = []
    for country, domains in observed.items():
        for domain in domains:
            rows.append([country.value.upper(), domain,
                         normalize_rotating(domain)])
    print("\n" + render_table(
        ["country", "observed domain", "paper notation"], rows,
        title="ACR domains discovered from captures"))

    uk = {normalize_rotating(d) for d in observed[Country.UK]}
    us = {normalize_rotating(d) for d in observed[Country.US]}
    assert uk == {"eu-acrX.alphonso.tv",
                  "acr-eu-prd.samsungcloud.tv",
                  "acr0.samsungcloudsolution.com",
                  "log-config.samsungacr.com",
                  "log-ingestion-eu.samsungacr.com"}
    assert us == {"tkacrX.alphonso.tv",
                  "acr-us-prd.samsungcloud.tv",
                  "log-config.samsungacr.com",
                  "log-ingestion.samsungacr.com"}


def test_lg_rotation_scheme(benchmark):
    """The X in eu-acrX changes across rotation windows."""
    from repro.dnsinfra import DomainRegistry, ROTATION_PERIOD_NS

    registry = DomainRegistry()

    def rotation_schedule():
        return [registry.fingerprint_domain(
            "lg", "uk", window * ROTATION_PERIOD_NS, seed=7)
            for window in range(24)]

    schedule = benchmark(rotation_schedule)
    print(f"\nLG rotation over 6 days: {schedule}")
    assert len(set(schedule)) > 1
    assert all(name.startswith("eu-acr") for name in schedule)
