"""Sharded fleet execution over the grid's process pool and result cache.

A fleet run is embarrassingly parallel: each household session is a pure
function of ``(household label, derived seed)``.  The runner

* partitions households into fixed-size shards whose boundaries depend
  only on N (never on ``--jobs``), so the fold structure — fold within a
  shard, merge shards in index order — is identical however many workers
  execute it, and the aggregate report is byte-identical across job
  counts;
* executes shards on a :class:`~concurrent.futures.ProcessPoolExecutor`
  after :func:`~repro.experiments.grid.warm_assets` builds the shared
  per-country assets pre-fork;
* memoizes each household capture in the content-addressed
  :class:`~repro.experiments.grid.ResultCache` (keyed by household
  label, diary duration and derived seed), so a repeated or *grown*
  fleet only simulates new households;
* folds each household's audit into a
  :class:`~repro.fleet.aggregate.FleetAggregate` inside the worker and
  returns only the shard aggregate — captures never cross the process
  boundary and parent memory stays constant in N.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
from typing import Callable, List, Optional, Tuple

from ..analysis.pipeline import AuditPipeline
from ..faults import (NULL_PLAN, FaultPlan, produce_with_retries,
                      salvage_pcap_bytes, tamper_pcap_bytes)
from ..findings import Finding
from ..experiments.grid import (CacheReadError, ResultCache,
                                record_from_result, warm_assets)
from ..net.addresses import Ipv4Address
from ..net.pcap import GLOBAL_HEADER, PcapError
from ..obs.metrics import get_registry, metrics_enabled, scoped
from ..testbed.runner import run_session
from ..testbed.validation import validate_session
from .aggregate import FleetAggregate, merge_all, summarize_household
from .population import HouseholdSpec, PopulationSpec

#: Households per shard.  Fixed (not derived from --jobs) so the shard
#: partition — and therefore the fold/merge structure — depends only on
#: the population, which is what makes reports job-count invariant.
SHARD_SIZE = 16

ProgressFn = Callable[[int, int, int, int], None]

#: Richer progress hook: (done shards, total shards, executed, cached,
#: aggregate folded so far) — what the dashboard renders from.
ObserverFn = Callable[[int, int, int, int, FleetAggregate], None]


class FleetRunError(RuntimeError):
    """A household session failed validation."""


def household_record(household: HouseholdSpec,
                     cache: Optional[ResultCache],
                     warm: Optional[Callable[[], None]] = None):
    """Produce (or recall) one household's capture record.

    Returns ``(record, executed)``.  A cached capture that turns out to
    be unreadable is dropped and the household re-run, mirroring the
    grid's self-healing behaviour.  ``warm``, if given, runs before a
    household is simulated, outside its ``fleet.simulate`` span.  This
    is the single capture-production step shared by the batch shard
    workers below and the streaming service tier (:mod:`repro.service`),
    which chops the record's pcap into segments instead of auditing it
    in one piece.
    """
    diary = household.diary_obj
    record = cache.load_for(household.label, diary.duration_ns,
                            household.seed) if cache else None
    executed = False
    if record is not None:
        try:
            record.pcap_bytes
        except CacheReadError:
            record = None
    if record is None:
        if warm is not None:
            warm()
        with get_registry().span("fleet.simulate"):
            result = run_session(
                household.vendor, household.country, household.phase,
                diary.as_runner_segments(), seed=household.seed,
                label=household.label)
        report = validate_session(result, diary.scenarios)
        if not report.ok:
            raise FleetRunError(
                f"household {household.label} (seed "
                f"{household.seed}) failed validation: "
                f"{report.failures}")
        record = record_from_result(result)
        record.label = household.label
        executed = True
        if cache:
            cache.store(record)
    return record, executed


def _audit_household(household: HouseholdSpec,
                     cache: Optional[ResultCache],
                     faults: FaultPlan = NULL_PLAN,
                     warm: Optional[Callable[[], None]] = None
                     ) -> Tuple[dict, bool]:
    """Run (or recall) one household and reduce it to a summary.

    Returns ``(summary, executed)``."""
    registry = get_registry()
    record, executed = household_record(household, cache, warm)
    pcap_bytes = record.pcap_bytes
    packet_count, pcap_len = record.packet_count, record.pcap_len
    if faults:
        pcap_bytes, __ = tamper_pcap_bytes(faults, pcap_bytes,
                                           household.index)
    quarantined: List[Finding] = []
    tv_ip = Ipv4Address.parse(record.tv_ip)
    with registry.span("fleet.decode"):
        try:
            pipeline = AuditPipeline.from_pcap_bytes(pcap_bytes, tv_ip)
        except (PcapError, ValueError) as exc:
            # Quarantine-and-continue: salvage what still decodes and
            # surface every dropped record as a counted finding instead
            # of aborting the shard.
            clean, drops = salvage_pcap_bytes(pcap_bytes)
            registry.inc("faults.degraded.captures")
            registry.inc("faults.degraded.records", len(drops))
            for record_index, reason in drops:
                quarantined.append(Finding.degradation(
                    household.label, household.index, None,
                    record_index, reason))
            pipeline = AuditPipeline.from_pcap_bytes(clean, tv_ip) \
                if clean else AuditPipeline.incremental(tv_ip)
            packet_count = len(pipeline.packets)
            pcap_len = max(len(clean), GLOBAL_HEADER.size)
    summary = summarize_household(household, pipeline,
                                  packet_count, pcap_len)
    if quarantined:
        summary["findings"] = quarantined
    registry.inc("fleet.households")
    # Drop the heavy objects before the next household: the aggregate
    # keeps only the summary's integers.
    del pipeline, record
    return summary, executed


def _run_shard(payload) -> Tuple[FleetAggregate, int, int,
                                 Optional[dict]]:
    """Pool worker: audit one shard, return its merged aggregate.

    Takes only primitives (household tuples + cache coordinates + the
    fault plan) and returns the shard's :class:`FleetAggregate` plus
    executed/cached counts and — when the parent had metrics enabled —
    the shard's own metrics snapshot, collected in a worker-local
    registry so the parent can absorb it without double counting.
    Never a capture.
    """
    (household_tuples, cache_root, cache_version, collect_metrics,
     plan_tuple) = payload
    cache = ResultCache(cache_root, version=cache_version) \
        if cache_root else None
    faults = FaultPlan.from_tuple(plan_tuple)
    households = [HouseholdSpec.from_tuple(values)
                  for values in household_tuples]
    aggregate = FleetAggregate()
    executed = cached = 0
    warmed = False

    def warm() -> None:
        # The shard's countries' assets, built (or, when a forked
        # parent already built them, found) once, before the shard's
        # first simulation, so that no household's timer absorbs it.
        # A shard served wholly from the cache never needs them.
        nonlocal warmed
        if not warmed:
            warmed = True
            with get_registry().span("assets.warm"):
                warm_assets(countries={household.country.value
                                       for household in households})

    with scoped(collect_metrics) as registry:
        with get_registry().span("fleet.shard"):
            for household in households:
                # An injected audit-worker crash/hang kills this
                # household's attempt mid-shard; the bounded retry
                # makes the shard self-healing.
                (summary, ran), __ = produce_with_retries(
                    faults, (household.index,),
                    lambda: _audit_household(household, cache, faults,
                                             warm))
                aggregate.fold(summary)
                if ran:
                    executed += 1
                else:
                    cached += 1
        get_registry().inc("fleet.shards.completed")
        snapshot = registry.snapshot() if registry is not None else None
    return aggregate, executed, cached, snapshot


class FleetResult:
    """Outcome of one fleet run: the aggregate plus execution stats."""

    __slots__ = ("aggregate", "households", "shards", "executed",
                 "cached", "elapsed_s")

    def __init__(self, aggregate: FleetAggregate, households: int,
                 shards: int, executed: int, cached: int,
                 elapsed_s: float) -> None:
        self.aggregate = aggregate
        self.households = households
        self.shards = shards
        self.executed = executed
        self.cached = cached
        self.elapsed_s = elapsed_s

    def __repr__(self) -> str:
        return (f"FleetResult({self.households} households in "
                f"{self.shards} shards, {self.executed} executed, "
                f"{self.cached} cached, {self.elapsed_s:.1f}s)")


class FleetRunner:
    """Execute a population, sharded, through the result cache."""

    def __init__(self, cache: Optional[ResultCache] = None, jobs: int = 1,
                 shard_size: int = SHARD_SIZE,
                 faults: FaultPlan = NULL_PLAN) -> None:
        if shard_size <= 0:
            raise ValueError("shard size must be positive")
        self.cache = cache
        self.jobs = max(1, jobs)
        self.shard_size = shard_size
        self.faults = faults

    def _payloads(self, population: PopulationSpec) -> List[Tuple]:
        cache_root = self.cache.root if self.cache else None
        cache_version = self.cache.version if self.cache else None
        households = [household.as_tuple() for household in population]
        return [
            (tuple(households[start:start + self.shard_size]),
             cache_root, cache_version, metrics_enabled(),
             self.faults.as_tuple())
            for start in range(0, len(households), self.shard_size)]

    def run(self, population: PopulationSpec,
            progress: Optional[ProgressFn] = None,
            observer: Optional[ObserverFn] = None) -> FleetResult:
        """Audit every household; constant parent memory in N.

        ``progress`` receives plain shard counts; ``observer``
        additionally receives the aggregate folded so far (shards merge
        in index order), which is what the live dashboard renders —
        both are observation only and never affect the result.
        """
        started = time.perf_counter()
        payloads = self._payloads(population)
        shard_outputs: List[Optional[Tuple]] = [None] * len(payloads)

        def collect(index: int, output: Tuple) -> None:
            shard_outputs[index] = output
            get_registry().absorb(output[3])
            registry = get_registry()
            if registry.enabled:
                elapsed = time.perf_counter() - started
                folded = sum(o[0].households for o in shard_outputs
                             if o is not None)
                if elapsed > 0:
                    registry.gauge_set("fleet.households_per_s",
                                       round(folded / elapsed, 3))
            self._report(progress, observer, shard_outputs)

        if self.jobs == 1 or len(payloads) == 1:
            for index, payload in enumerate(payloads):
                collect(index, _run_shard(payload))
        else:
            workers = min(self.jobs, len(payloads))
            if multiprocessing.get_start_method() == "fork":
                # Same pre-fork warm-up the grid runner does: workers
                # inherit the per-country reference libraries
                # copy-on-write instead of each rebuilding them.
                warm_assets(countries=population.countries())
            failed: List[int] = []
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                futures = {
                    pool.submit(_run_shard, payload): index
                    for index, payload in enumerate(payloads)}
                for future in concurrent.futures.as_completed(futures):
                    try:
                        collect(futures[future], future.result())
                    except concurrent.futures.process.BrokenProcessPool:
                        # A worker died for real (OOM-kill, segfault).
                        # The pool is unusable from here on; requeue
                        # every lost shard for the serial pass below.
                        failed.append(futures[future])
            for index in sorted(failed):
                get_registry().inc("retry.shard.requeued")
                collect(index, _run_shard(payloads[index]))

        aggregate = merge_all(output[0] for output in shard_outputs)
        executed = sum(output[1] for output in shard_outputs)
        cached = sum(output[2] for output in shard_outputs)
        return FleetResult(aggregate, population.households,
                           len(payloads), executed, cached,
                           time.perf_counter() - started)

    @staticmethod
    def _report(progress: Optional[ProgressFn],
                observer: Optional[ObserverFn],
                shard_outputs: List) -> None:
        if progress is None and observer is None:
            return
        done = [output for output in shard_outputs if output is not None]
        counts = (len(done), len(shard_outputs),
                  sum(output[1] for output in done),
                  sum(output[2] for output in done))
        if progress is not None:
            progress(*counts)
        if observer is not None:
            # Index order keeps the partial aggregate canonical (the
            # same discipline as the final merge).
            observer(*counts, merge_all(
                output[0] for output in shard_outputs
                if output is not None))
