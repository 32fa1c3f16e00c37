"""Sharded fleet execution over the worker pool and the grid's result cache.

A fleet run is embarrassingly parallel: each household session is a pure
function of ``(household label, derived seed)``.  The runner

* partitions households by country and cuts each country's households,
  in index order, into shards of at most ``SHARD_SIZE``: a shard's
  households watch one country's channels, so the worker that runs it
  renders and matches them once.  The shards depend only on the
  population (never on ``--jobs``), so the fold structure — fold within
  a shard, merge shards in shard order — is identical however many
  workers execute it, and the aggregate report is byte-identical across
  job counts;
* executes shards on the worker pool (:mod:`repro.experiments.pool`),
  which warms the shared per-country assets and reruns the shards a
  dead worker lost;
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

import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..analysis.pipeline import AuditPipeline
from ..faults import (NULL_PLAN, FaultPlan, produce_with_retries,
                      salvage_pcap_bytes, tamper_pcap_bytes)
from ..findings import Finding
from ..experiments.grid import (CacheReadError, ResultCache,
                                record_from_result)
from ..experiments.pool import partition, run_tasks, warm_assets
from ..net.addresses import Ipv4Address
from ..net.pcap import GLOBAL_HEADER, PcapError
from ..obs.metrics import get_registry
from ..testbed.runner import run_session
from ..testbed.validation import validate_session
from .aggregate import FleetAggregate, merge_all, summarize_household
from .population import HouseholdSpec, PopulationSpec

#: Most households per shard.  Fixed (not derived from --jobs) so the
#: shard partition — and therefore the fold/merge structure — depends
#: only on the population, which is what makes reports job-count
#: invariant.
SHARD_SIZE = 16

ProgressFn = Callable[[int, int, int, int], None]

#: Richer progress hook: (done shards, total shards, executed, cached,
#: aggregate folded so far) — what the dashboard renders from.
ObserverFn = Callable[[int, int, int, int, FleetAggregate], None]


class FleetRunError(RuntimeError):
    """A household session failed validation."""


def household_record(household: HouseholdSpec,
                     cache: Optional[ResultCache]):
    """Produce (or recall) one household's capture record.

    Returns ``(record, executed)``.  A cached capture that turns out to
    be unreadable is dropped and the household re-run, mirroring the
    grid's self-healing behaviour.  The country's assets are warmed
    before a household is simulated, outside its ``fleet.simulate``
    span.  This is the single capture-production step shared by the
    batch shard workers below and the streaming service tier
    (:mod:`repro.service`), which chops the record's pcap into segments
    instead of auditing it in one piece.
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
        warm_assets(countries=[household.country.value])
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
                     faults: FaultPlan = NULL_PLAN) -> Tuple[dict, bool]:
    """Run (or recall) one household and reduce it to a summary.

    Returns ``(summary, executed)``."""
    registry = get_registry()
    record, executed = household_record(household, cache)
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


def shards(households: Sequence[HouseholdSpec], size: int
           ) -> List[List[HouseholdSpec]]:
    """The fleet's pool tasks: households grouped by country, each
    country's households cut, in index order, into runs of at most
    ``size``."""
    return partition(households, lambda household: household.country,
                     size)


def household_payloads(tasks: Sequence[Sequence[HouseholdSpec]],
                       cache: Optional[ResultCache],
                       faults: FaultPlan) -> List[Tuple]:
    """One picklable pool payload per task of households: the
    households' tuples, the cache's root and version, and the fault
    plan."""
    cache_at = (cache.root, cache.version) if cache else None
    return [(tuple(household.as_tuple() for household in task),
             cache_at, faults.as_tuple()) for task in tasks]


def _run_shard(payload) -> Tuple[FleetAggregate, int, int]:
    """Pool worker: audit one shard, return its merged aggregate and
    its executed and cached counts.  Never a capture."""
    household_tuples, cache_at, plan_tuple = payload
    cache = ResultCache(*cache_at) if cache_at else None
    faults = FaultPlan.from_tuple(plan_tuple)
    aggregate = FleetAggregate()
    executed = cached = 0
    with get_registry().span("fleet.shard"):
        for values in household_tuples:
            household = HouseholdSpec.from_tuple(values)
            # An injected audit-worker crash/hang kills this household's
            # attempt mid-shard; the bounded retry makes the shard
            # self-healing.
            (summary, ran), __ = produce_with_retries(
                faults, (household.index,),
                lambda: _audit_household(household, cache, faults))
            aggregate.fold(summary)
            if ran:
                executed += 1
            else:
                cached += 1
    get_registry().inc("fleet.shards.completed")
    return aggregate, executed, cached


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

    def run(self, population: PopulationSpec,
            progress: Optional[ProgressFn] = None,
            observer: Optional[ObserverFn] = None) -> FleetResult:
        """Audit every household; constant parent memory in N.

        ``progress`` receives plain shard counts; ``observer``
        additionally receives the aggregate folded so far (shards merge
        in shard order), which is what the live dashboard renders —
        both are observation only and never affect the result.
        """
        started = time.perf_counter()
        tasks = shards(list(population), self.shard_size)
        outputs: List[Tuple] = []
        for output in run_tasks(
                _run_shard,
                household_payloads(tasks, self.cache, self.faults),
                self.jobs, population.countries()):
            outputs.append(output)
            registry = get_registry()
            if registry.enabled:
                elapsed = time.perf_counter() - started
                folded = sum(done[0].households for done in outputs)
                if elapsed > 0:
                    registry.gauge_set("fleet.households_per_s",
                                       round(folded / elapsed, 3))
            self._report(progress, observer, outputs, len(tasks))

        aggregate = merge_all(output[0] for output in outputs)
        executed = sum(output[1] for output in outputs)
        cached = sum(output[2] for output in outputs)
        return FleetResult(aggregate, population.households,
                           len(tasks), executed, cached,
                           time.perf_counter() - started)

    @staticmethod
    def _report(progress: Optional[ProgressFn],
                observer: Optional[ObserverFn],
                outputs: List, total: int) -> None:
        if progress is None and observer is None:
            return
        counts = (len(outputs), total,
                  sum(output[1] for output in outputs),
                  sum(output[2] for output in outputs))
        if progress is not None:
            progress(*counts)
        if observer is not None:
            # Shard order keeps the partial aggregate canonical (the
            # same discipline as the final merge).
            observer(*counts, merge_all(output[0] for output in outputs))
