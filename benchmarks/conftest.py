"""Shared benchmark fixtures.

The campaign cache is warmed once per session; benches then measure the
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
from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,  # noqa: E402
                           paper_vendors)


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
