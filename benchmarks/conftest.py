"""Shared benchmark fixtures.

Each session simulates its cells once; benches then measure the
regeneration (analysis) step over cached captures and print the
reproduced table/figure next to the paper's values.  The grid result
cache is a fresh temporary directory per session, removed when the
session ends, unless the caller chose one with ``REPRO_CACHE_DIR``.
"""

import os
import shutil
import tempfile

import pytest

#: The session's own result cache, removed when the session ends; None
#: when the caller chose ``REPRO_CACHE_DIR``.
SESSION_CACHE_DIR = None
if "REPRO_CACHE_DIR" not in os.environ:
    SESSION_CACHE_DIR = os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
        prefix="repro-acr-test-cache-")

from repro.experiments import cache  # noqa: E402
from repro.experiments.fig_cdf import transmitted_curve  # noqa: E402
from repro.experiments.fig_timelines import (SCENARIO_LABELS,  # noqa: E402
                                             build_figure)
from repro.reporting import render_table  # noqa: E402
from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,  # noqa: E402
                           Vendor, paper_vendors)


def pytest_unconfigure(config):
    if SESSION_CACHE_DIR is not None:
        shutil.rmtree(SESSION_CACHE_DIR, ignore_errors=True)


def pytest_collection_modifyitems(items):
    # Everything under benchmarks/ carries the registered `bench` marker
    # so mixed invocations can select the layer with -m bench.
    for item in items:
        item.add_marker(pytest.mark.bench)


def warm(vendor, country, scenarios, phases):
    """Ensure a set of cells is simulated and decoded."""
    for scenario in scenarios:
        for phase in phases:
            cache.pipeline_for(
                ExperimentSpec(vendor, country, scenario, phase))


@pytest.fixture(scope="session")
def uk_opted_in_cells():
    for vendor in paper_vendors():
        warm(vendor, Country.UK, list(Scenario),
             [Phase.LIN_OIN, Phase.LOUT_OIN])
    return cache


@pytest.fixture(scope="session")
def us_opted_in_cells():
    for vendor in paper_vendors():
        warm(vendor, Country.US, list(Scenario),
             [Phase.LIN_OIN, Phase.LOUT_OIN])
    return cache


@pytest.fixture(scope="session")
def optout_cells():
    for vendor in paper_vendors():
        for country in Country:
            warm(vendor, country, [Scenario.LINEAR],
                 [Phase.LIN_OOUT, Phase.LOUT_OOUT])
    return cache


def once(benchmark, fn, *args, **kwargs):
    """Run a regeneration exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def panels(country, phase):
    """The (a) LG and (b) Samsung timeline panels of one country and
    phase, as ``report`` builds them."""
    return [build_figure(vendor, country, phase)
            for vendor in (Vendor.LG, Vendor.SAMSUNG)]


def print_panel(title, panel):
    """Print a timeline panel as ``report`` tabulates it: packets in the
    10-minute window and the peak packets/ms of each scenario."""
    rows = [[SCENARIO_LABELS[scenario],
             str(panel.timelines[scenario].total_packets),
             str(panel.peak(scenario))] for scenario in Scenario]
    print("\n" + render_table(
        ["scenario", "packets in 10 min window", "peak pkts/ms"], rows,
        title=title))


def opted_in_curves(country):
    """Figure 5 (UK) or 7 (US): the transmitted-bytes curve of every
    paper vendor, scenario and opted-in phase, keyed by that triple."""
    return {(vendor, scenario, phase): transmitted_curve(
                ExperimentSpec(vendor, country, scenario, phase))
            for vendor in paper_vendors() for scenario in Scenario
            for phase in (Phase.LIN_OIN, Phase.LOUT_OIN)}


def sent_kb(curves, vendor, scenario, phase):
    """KB sent on the ``(vendor, scenario, phase)`` curve of
    :func:`opted_in_curves`."""
    return curves[(vendor, scenario, phase)].total_bytes / 1000


def print_curve_totals(title, curves):
    """Print the KB each curve of :func:`opted_in_curves` sent, one row
    per vendor and scenario."""
    rows = [[vendor.value, scenario.value,
             f"{sent_kb(curves, vendor, scenario, Phase.LIN_OIN):.1f}",
             f"{sent_kb(curves, vendor, scenario, Phase.LOUT_OIN):.1f}"]
            for vendor in paper_vendors() for scenario in Scenario]
    print("\n" + render_table(
        ["vendor", "scenario", "LIn-OIn KB sent", "LOut-OIn KB sent"],
        rows, title=title))
