"""Shared fixtures.

Expensive assets (media libraries, reference fingerprint databases,
experiment cells) are cached at session scope — and the testbed's own
``assets``/``experiments.cache`` layers memoize within the process — so
the suite builds each one exactly once.

The grid result cache is a fresh temporary directory per session,
removed when the session ends, unless the caller chose one with
``REPRO_CACHE_DIR``.  So no run reads captures that older simulator
code stored (the suites that pin their cache version would), writes
into the user's ``~/.cache`` or leaves files behind.
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

from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,  # noqa: E402
                           Vendor)
from repro.experiments import cache as experiment_cache  # noqa: E402


def pytest_unconfigure(config):
    if SESSION_CACHE_DIR is not None:
        shutil.rmtree(SESSION_CACHE_DIR, ignore_errors=True)


@pytest.fixture(scope="session")
def uk_library():
    from repro.testbed import media_library
    return media_library("uk", 0)


@pytest.fixture(scope="session")
def uk_reference():
    from repro.testbed import reference_library
    return reference_library("uk", 0)


@pytest.fixture(scope="session")
def lg_uk_linear_record():
    spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.LINEAR,
                          Phase.LIN_OIN)
    return experiment_cache.grid().record(spec)


@pytest.fixture(scope="session")
def lg_uk_linear_pipeline():
    spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.LINEAR,
                          Phase.LIN_OIN)
    return experiment_cache.pipeline_for(spec)


@pytest.fixture(scope="session")
def samsung_uk_linear_pipeline():
    spec = ExperimentSpec(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                          Phase.LIN_OIN)
    return experiment_cache.pipeline_for(spec)


@pytest.fixture(scope="session")
def lg_uk_linear_optout_pipeline():
    spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.LINEAR,
                          Phase.LIN_OOUT)
    return experiment_cache.pipeline_for(spec)


@pytest.fixture(scope="session")
def samsung_uk_linear_optout_pipeline():
    spec = ExperimentSpec(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                          Phase.LIN_OOUT)
    return experiment_cache.pipeline_for(spec)


@pytest.fixture(scope="session")
def lg_uk_idle_pipeline():
    spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.IDLE,
                          Phase.LIN_OIN)
    return experiment_cache.pipeline_for(spec)
