"""Fleet runner: parallel scaling, warm-cache reuse, bounded memory.

Acceptance targets:

* a warm-cache fleet rerun is at least 5x faster than the cold run that
  populated the cache (repeated fleets only pay for new households);
* peak memory is bounded as the population grows — a 4x larger fleet
  must stay within 2x the peak of the small one, because aggregation is
  streaming (one household in memory at a time, never the fleet);
* parallel execution produces the identical aggregate and, on
  multi-core hosts, a wall-clock speedup.  On a single-core host the
  process pool can only add overhead, so the speedup assertion is
  skipped there (the determinism assertion is not).
"""

import os
import time
import tracemalloc

import pytest

from repro.experiments.grid import ResultCache, warm_assets
from repro.fleet import FleetRunner, PopulationSpec
from repro.reporting import render_table

# One country (one asset build), short diaries, so the bench stays
# responsive while still decoding real multi-segment captures.
QUICK_MIX = {"country": {"uk": 1.0},
             "diary": {"second_screen": 0.5, "binge": 0.5}}
SEED = 17


def population(households):
    return PopulationSpec(households, seed=SEED, mixes=QUICK_MIX)


@pytest.fixture(scope="module")
def shared_assets():
    """Build per-country assets once, as the CLI does pre-fork."""
    warm_assets(countries=["uk"])


@pytest.mark.wallclock
def test_fleet_parallel_scaling(shared_assets):
    # shard_size=3 over 12 households -> 4 shards, so the jobs=4 run
    # genuinely executes on the process pool (a single shard would
    # silently take FleetRunner's in-process path).
    pop = population(12)
    started = time.perf_counter()
    serial = FleetRunner(cache=None, jobs=1, shard_size=3).run(pop)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = FleetRunner(cache=None, jobs=4, shard_size=3).run(pop)
    parallel_s = time.perf_counter() - started
    assert parallel.shards == 4

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print("\n" + render_table(
        ["run", "households", "wall s"],
        [["serial (1 job)", pop.households, f"{serial_s:.2f}"],
         ["parallel (4 jobs)", pop.households, f"{parallel_s:.2f}"],
         ["speedup", "", f"{speedup:.2f}x"]],
        title="Fleet runner: serial vs parallel (cold)"))

    # Parallelism must never change the answer...
    assert parallel.aggregate == serial.aggregate
    # ...and must change the wall clock where the hardware allows it.
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip("single-core host: parallel wall-clock speedup "
                    "is not measurable (determinism asserted above)")
    assert speedup > 1.1, \
        f"parallel fleet only {speedup:.2f}x faster on {cores} cores"


@pytest.mark.wallclock
def test_fleet_warm_cache_speedup(shared_assets, tmp_path):
    pop = population(10)
    cache = ResultCache(str(tmp_path), version="bench-fleet")

    started = time.perf_counter()
    cold = FleetRunner(cache=cache, jobs=1).run(pop)
    cold_s = time.perf_counter() - started
    assert cold.executed == pop.households

    started = time.perf_counter()
    warm = FleetRunner(
        cache=ResultCache(str(tmp_path), version="bench-fleet"),
        jobs=1).run(pop)
    warm_s = time.perf_counter() - started
    assert warm.cached == pop.households
    assert warm.aggregate == cold.aggregate

    speedup = cold_s / warm_s if warm_s else float("inf")
    print("\n" + render_table(
        ["run", "executed", "cached", "wall s"],
        [["cold", cold.executed, cold.cached, f"{cold_s:.2f}"],
         ["warm cache", warm.executed, warm.cached, f"{warm_s:.3f}"],
         ["speedup", "", "", f"{speedup:.0f}x"]],
        title="Fleet runner: cold vs warm-cache"))
    assert speedup >= 5.0, \
        f"warm fleet only {speedup:.1f}x faster ({cold_s:.2f}s -> " \
        f"{warm_s:.2f}s)"


def _peak_memory_for(households):
    """Peak traced allocation for one in-process fleet run."""
    pop = population(households)
    tracemalloc.start()
    result = FleetRunner(cache=None, jobs=1).run(pop)
    __, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert result.households == households
    return peak


def test_fleet_constant_peak_memory(shared_assets):
    # Warm every per-process memo (asset caches, decoders) outside the
    # measurement so both runs see the same baseline.
    _peak_memory_for(1)

    small_peak = _peak_memory_for(4)
    large_peak = _peak_memory_for(16)

    ratio = large_peak / small_peak
    print("\n" + render_table(
        ["fleet size", "peak MB"],
        [[4, f"{small_peak / 1e6:.1f}"],
         [16, f"{large_peak / 1e6:.1f}"],
         ["ratio (4x households)", f"{ratio:.2f}x"]],
        title="Fleet runner: peak memory vs population size"))
    # Streaming aggregation: peak tracks the largest single household,
    # not the population.  Allow 2x slack for allocator noise on a 4x
    # larger fleet.
    assert ratio < 2.0, \
        f"peak memory grew {ratio:.2f}x for a 4x larger fleet " \
        f"({small_peak / 1e6:.1f} MB -> {large_peak / 1e6:.1f} MB)"
