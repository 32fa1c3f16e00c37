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
* audits each household through one :class:`HouseholdIngest` — the
  household step the streaming service (:mod:`repro.service`) shares,
  fed here the whole capture as one piece — and folds the summary into
  a :class:`~repro.fleet.aggregate.FleetAggregate` inside the worker,
  returning only the shard aggregate: captures never cross the process
  boundary and parent memory stays constant in N.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from .aggregate import FleetAggregate, summarize_household
from .population import HouseholdSpec, PopulationSpec

#: Most households per shard.  Fixed (not derived from --jobs) so the
#: shard partition — and therefore the fold/merge structure — depends
#: only on the population, which is what makes reports job-count
#: invariant.
SHARD_SIZE = 16

#: Progress hook: (done shards, total shards, executed, cached,
#: aggregate folded so far).  Observation only.
ProgressFn = Callable[[int, int, int, int, FleetAggregate], None]


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


class HouseholdIngest:
    """One household's audit: capture pieces in, one summary out.

    The only code that turns capture bytes into a household summary.
    The fleet applies a whole capture as one piece; the streaming
    service applies its segments in ``seq`` order.  The summary is the
    same for any cut of the capture.
    """

    __slots__ = ("household", "pipeline", "packet_count", "pcap_len",
                 "findings")

    def __init__(self, household: HouseholdSpec, tv_ip: str) -> None:
        self.household = household
        self.pipeline = AuditPipeline.incremental(Ipv4Address.parse(tv_ip))
        self.packet_count = 0
        #: Audited capture size: the global header once, plus the
        #: records of every applied piece.
        self.pcap_len = GLOBAL_HEADER.size
        #: Degradation findings, one per quarantined record — empty on
        #: any clean capture.
        self.findings: List[Finding] = []

    def ingest(self, payload: bytes, seq: Optional[int] = None) -> bool:
        """Apply one pcap-framed piece (``seq`` is its segment number,
        ``None`` for a whole capture); true when it was quarantined.

        A piece the decode rejects is not fatal: the decodable records
        are salvaged and applied (``extend_pcap_bytes`` is all or
        nothing, so the rejected attempt left the pipeline unchanged),
        each dropped record becomes a degradation finding, and the
        packet and byte accounting covers only what was audited.
        """
        try:
            self._apply(payload)
            return False
        except (PcapError, ValueError):
            pass
        clean, drops = salvage_pcap_bytes(payload)
        if len(clean) > GLOBAL_HEADER.size:
            self._apply(clean)
        household = self.household
        for record_index, reason in drops:
            self.findings.append(Finding.degradation(
                household.label, household.index, seq, record_index,
                reason))
        get_registry().inc("faults.degraded.records", len(drops))
        return True

    def _apply(self, raw: bytes) -> None:
        self.packet_count += self.pipeline.extend_pcap_bytes(raw)
        self.pcap_len += len(raw) - GLOBAL_HEADER.size

    def summarize(self) -> Dict[str, object]:
        """The finished household summary.

        ``findings`` appears only when records were quarantined, so a
        clean household's summary — and everything folded from it — is
        identical to one produced before the fault layer existed.
        """
        summary = summarize_household(self.household, self.pipeline,
                                      self.packet_count, self.pcap_len)
        if self.findings:
            summary["findings"] = list(self.findings)
        return summary


def _audit_household(household: HouseholdSpec,
                     cache: Optional[ResultCache],
                     faults: FaultPlan = NULL_PLAN) -> Tuple[dict, bool]:
    """Run (or recall) one household and reduce it to a summary.

    Returns ``(summary, executed)``."""
    registry = get_registry()
    record, executed = household_record(household, cache)
    pcap_bytes = record.pcap_bytes
    if faults:
        pcap_bytes, __ = tamper_pcap_bytes(faults, pcap_bytes,
                                           household.index)
    ingest = HouseholdIngest(household, record.tv_ip)
    with registry.span("fleet.decode"):
        if ingest.ingest(pcap_bytes):
            registry.inc("faults.degraded.captures")
    registry.inc("fleet.households")
    return ingest.summarize(), executed


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
                 faults: FaultPlan = NULL_PLAN) -> None:
        self.cache = cache
        self.jobs = max(1, jobs)
        self.faults = faults

    def run(self, population: PopulationSpec,
            progress: Optional[ProgressFn] = None) -> FleetResult:
        """Audit every household; constant parent memory in N.

        Shard aggregates merge in shard order as they arrive, so after
        each shard ``progress`` receives the shard counts and the
        aggregate folded so far.  It observes only and never affects
        the result.
        """
        started = time.perf_counter()
        tasks = shards(list(population), SHARD_SIZE)
        aggregate = FleetAggregate()
        executed = cached = 0
        for done, (shard, shard_executed, shard_cached) in enumerate(
                run_tasks(_run_shard,
                          household_payloads(tasks, self.cache,
                                             self.faults),
                          self.jobs, population.countries()), 1):
            aggregate = aggregate.merge(shard)
            executed += shard_executed
            cached += shard_cached
            registry = get_registry()
            if registry.enabled:
                elapsed = time.perf_counter() - started
                if elapsed > 0:
                    registry.gauge_set(
                        "fleet.households_per_s",
                        round(aggregate.households / elapsed, 3))
            if progress is not None:
                progress(done, len(tasks), executed, cached, aggregate)
        return FleetResult(aggregate, population.households,
                           len(tasks), executed, cached,
                           time.perf_counter() - started)
