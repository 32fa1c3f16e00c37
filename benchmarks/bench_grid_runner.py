"""Grid runner: serial vs parallel execution vs warm-cache regeneration.

Acceptance target: a second, warm-cache invocation of the same grid must
be at least 5x faster than the cold run that populated the cache (in
practice it is orders of magnitude faster — warm runs only read the
per-cell metadata records).

The serial-vs-parallel pair measures process-pool scaling; the win grows
with core count (on a single-core host the parallel run only shows the
pool's fork/pickle overhead, which is why no serial-vs-parallel assertion
is made here).
"""

import time

import pytest
from conftest import once

from repro.experiments import grid as grid_mod
from repro.reporting import render_table
from repro.sim.clock import minutes

# Six cells: every scenario for LG in the UK during LIn-OIn, at a short
# (but workflow-complete) duration so the bench stays responsive.
FILTERS = ["vendor=lg", "country=uk", "phase=LIn-OIn"]
DURATION = minutes(8)
SEED = 11


def grid_specs():
    return grid_mod.enumerate_cells(FILTERS, duration_ns=DURATION)


@pytest.fixture(scope="module")
def shared_assets():
    """Build the per-country assets once so every timed run starts from
    the same warm-asset state (as the CLI does before forking workers)."""
    grid_mod.warm_assets({spec.country.value for spec in grid_specs()})


def test_grid_serial_cold(benchmark, shared_assets):
    records = once(benchmark, lambda: grid_mod.GridRunner(
        seed=SEED, cache=None, jobs=1).run(grid_specs()))
    assert len(records) == 6
    assert not any(record.from_cache for record in records)


def test_grid_parallel_cold(benchmark, shared_assets):
    records = once(benchmark, lambda: grid_mod.GridRunner(
        seed=SEED, cache=None, jobs=4).run(grid_specs()))
    assert len(records) == 6
    assert not any(record.from_cache for record in records)


@pytest.mark.wallclock
def test_grid_warm_cache_speedup(shared_assets, tmp_path):
    cache = grid_mod.ResultCache(str(tmp_path))
    specs = grid_specs()

    started = time.perf_counter()
    cold = grid_mod.GridRunner(seed=SEED, cache=cache, jobs=4).run(specs)
    cold_s = time.perf_counter() - started
    assert not any(record.from_cache for record in cold)

    started = time.perf_counter()
    warm = grid_mod.GridRunner(
        seed=SEED, cache=grid_mod.ResultCache(str(tmp_path)),
        jobs=4).run(specs)
    warm_s = time.perf_counter() - started
    assert all(record.from_cache for record in warm)

    speedup = cold_s / warm_s if warm_s else float("inf")
    print("\n" + render_table(
        ["run", "cells", "wall s"],
        [["cold (4 jobs)", len(cold), f"{cold_s:.3f}"],
         ["warm cache", len(warm), f"{warm_s:.4f}"],
         ["speedup", "", f"{speedup:.0f}x"]],
        title="Grid runner: cold vs warm-cache"))
    assert speedup >= 5.0, \
        f"warm cache only {speedup:.1f}x faster ({cold_s:.2f}s -> " \
        f"{warm_s:.2f}s)"
