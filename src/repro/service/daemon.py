"""The streaming audit service: an event-loop daemon over the fleet.

``AuditService`` runs the whole streaming tier on a deterministic
:class:`~repro.sim.events.EventLoop` (virtual time from ``sim.clock``):

* households are admitted in index order, at most ``window`` in flight
  (the bounded-memory household window);
* each admitted household's capture — produced in process or ahead on
  the worker pool (:mod:`repro.experiments.pool`, look-ahead bounded by
  the window), recalled from the shared result cache when warm — is cut
  into ``segments`` pcap slices whose *offer* times
  carry a per-segment deterministic jitter, so segments arrive
  interleaved and out of order;
* the :class:`~repro.service.bus.SegmentBus` admits offers under the
  per-household credit window; refusals park the segment until the bus
  reports a drain, when a retry event is scheduled (never re-entrantly);
* completed households are finalized by the
  :class:`~repro.service.auditor.IncrementalAuditor` into its
  :class:`~repro.fleet.aggregate.FleetAggregate`, freeing an admission
  slot;
* every ``checkpoint_every`` completions (and on a stop request) the
  aggregate and the completed set are snapshotted atomically.

Scheduling happens purely in virtual time and is a function of
``(population, config)`` alone — worker pools affect wall clock, never
state — so the final report is byte-identical to the batch ``fleet
--jobs 1`` path for every window, credit, segmentation, arrival order
and kill/resume schedule.  ``tests/test_service_equivalence.py`` pins
this.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.grid import ResultCache
from ..experiments.pool import partition, run_tasks
from ..faults import (NULL_PLAN, FaultPlan, produce_with_retries,
                      tamper_pcap_bytes)
from ..fleet.aggregate import FleetAggregate
from ..fleet.population import HouseholdSpec, PopulationSpec
from ..fleet.runner import ProgressFn, household_payloads, household_record
from ..obs.metrics import get_registry
from ..sim.clock import milliseconds, seconds
from ..sim.events import EventLoop
from .auditor import IncrementalAuditor
from .bus import DEFAULT_CREDITS, SegmentBus
from .checkpoint import (load_checkpoint, population_key,
                         write_checkpoint)
from .segments import CaptureSegment, segment_record

#: Offer jitter spread: segments of one household land within this
#: virtual span of its admission, in a seq-independent shuffle.
ARRIVAL_SPREAD_NS = seconds(2)

#: Virtual delay before a parked (refused) segment is re-offered after
#: the bus reports credit was freed.
RETRY_DELAY_NS = milliseconds(5)

#: Virtual-time cost of one injected capture-worker crash: the retry
#: backoff pushes the household's segment arrivals this much later.
RETRY_BACKOFF_NS = milliseconds(50)

#: Virtual-time cost of one injected capture-worker hang — a hang is
#: only *detected* by timeout, so it costs more than a crash.
HANG_TIMEOUT_NS = seconds(1)

#: Virtual delay before an injected-dropped segment is redelivered
#: (the producer's resend).
RESEND_DELAY_NS = milliseconds(80)

#: A duplicated segment's second delivery trails the first by this.
DUP_DELAY_NS = milliseconds(30)

#: Timed safety-net retry for parked segments while faults are active:
#: injected credit starvation breaks the "the cursor segment is always
#: admissible" invariant the drain-driven retry relies on, so a parked
#: household is also re-polled on a timer (fault runs only).
STARVE_RETRY_NS = milliseconds(11)


class ServiceStopped(RuntimeError):
    """The run was interrupted; ``checkpoint`` names the snapshot."""

    def __init__(self, message: str, checkpoint: Optional[str]) -> None:
        super().__init__(message)
        self.checkpoint = checkpoint


class ServiceConfig:
    """Streaming knobs.  All of them may change between a kill and a
    resume without perturbing the report — only the fleet identity
    (seed + mixes) is load-bearing.  (``faults`` with *lossy* sites —
    ``pcap.*`` — is the one exception: quarantined records change what
    gets audited, visibly and with evidence.)"""

    __slots__ = ("window", "credits", "segments", "checkpoint_every",
                 "faults")

    def __init__(self, window: int = 8, credits: int = DEFAULT_CREDITS,
                 segments: int = 6, checkpoint_every: int = 25,
                 faults: FaultPlan = NULL_PLAN) -> None:
        if window <= 0:
            raise ValueError("household window must be positive")
        if credits <= 0:
            raise ValueError("credit window must be positive")
        if segments <= 0:
            raise ValueError("segments per household must be positive")
        if checkpoint_every < 0:
            raise ValueError("checkpoint interval must not be negative")
        self.window = window
        self.credits = credits
        self.segments = segments
        self.checkpoint_every = checkpoint_every
        self.faults = faults


class ServiceResult:
    """Outcome of one service run: the folded aggregate (``state``)
    plus execution stats."""

    __slots__ = ("state", "population", "executed", "cached",
                 "resumed_households", "segments_delivered", "refusals",
                 "peak_open_households", "peak_tracked_flows",
                 "peak_buffered_segments", "checkpoints_written",
                 "elapsed_s")

    def __init__(self, state: FleetAggregate, population: PopulationSpec,
                 executed: int, cached: int, resumed_households: int,
                 segments_delivered: int, refusals: int,
                 peak_open_households: int, peak_tracked_flows: int,
                 peak_buffered_segments: int, checkpoints_written: int,
                 elapsed_s: float) -> None:
        self.state = state
        self.population = population
        self.executed = executed
        self.cached = cached
        self.resumed_households = resumed_households
        self.segments_delivered = segments_delivered
        self.refusals = refusals
        self.peak_open_households = peak_open_households
        self.peak_tracked_flows = peak_tracked_flows
        self.peak_buffered_segments = peak_buffered_segments
        self.checkpoints_written = checkpoints_written
        self.elapsed_s = elapsed_s

    def __repr__(self) -> str:
        return (f"ServiceResult({self.state.households} households, "
                f"{self.segments_delivered} segments, "
                f"{self.refusals} refusals, "
                f"{self.elapsed_s:.1f}s)")


def _produce(payload) -> Tuple[str, bytes, bool, List[str]]:
    """Pool worker: produce one household capture (cache-aware) under
    the bounded injected crash/hang retries.

    Returns ``(tv_ip, pcap, executed, sites)``: ``sites`` are the
    injected faults that fired, which the caller turns into
    virtual-time backoff.  Injection is keyed by the household index
    and the attempt, so the backoff and the fault counters are the same
    at any ``--jobs``.
    """
    (household_tuple,), cache_at, plan_tuple = payload
    household = HouseholdSpec.from_tuple(household_tuple)
    cache = ResultCache(*cache_at) if cache_at else None
    (record, executed), sites = produce_with_retries(
        FaultPlan.from_tuple(plan_tuple), (household.index,),
        lambda: household_record(household, cache))
    return record.tv_ip, record.pcap_bytes, executed, sites


class AuditService:
    """One streaming fleet run over the event loop."""

    def __init__(self, population: PopulationSpec,
                 cache: Optional[ResultCache] = None,
                 config: Optional[ServiceConfig] = None, jobs: int = 1,
                 checkpoint_dir: Optional[str] = None,
                 resume: bool = False,
                 progress: Optional[ProgressFn] = None,
                 stop_check: Optional[Callable[[], bool]] = None) -> None:
        self.population = population
        self.cache = cache
        self.config = config or ServiceConfig()
        self.jobs = max(1, jobs)
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.progress = progress
        self.stop_check = stop_check
        self.checkpoints_written = 0

    # -- deterministic arrival schedule -----------------------------------------

    def _jitter_ns(self, household_index: int, seq: int) -> int:
        digest = hashlib.sha256(
            f"{self.population.seed}:arrival:{household_index}:{seq}"
            .encode()).digest()
        return 1 + int.from_bytes(digest[:8], "big") % ARRIVAL_SPREAD_NS

    # -- the run ----------------------------------------------------------------

    def run(self) -> ServiceResult:
        started = time.perf_counter()
        config = self.config
        key = population_key(self.population.seed,
                             self.population.mixes)

        auditor = IncrementalAuditor()
        if self.resume:
            if not self.checkpoint_dir:
                raise ValueError("--resume needs a checkpoint dir")
            snapshot = load_checkpoint(self.checkpoint_dir,
                                       expect_key=key)
            auditor = IncrementalAuditor(snapshot.aggregate,
                                         snapshot.completed)
        completed = auditor.completed
        resumed = len(completed)

        queue = [household for household in self.population
                 if household.index not in completed]
        loop = EventLoop()
        total = self.population.households
        parked: Dict[int, Dict[int, CaptureSegment]] = {}
        since_checkpoint = 0
        executed = cached = 0
        faults = config.faults

        def on_complete(index: int) -> None:
            nonlocal since_checkpoint
            parked.pop(index, None)
            auditor.finalize(index)
            since_checkpoint += 1
            registry = get_registry()
            if registry.enabled:
                registry.inc("service.households")
                registry.gauge_max("service.open_households_peak",
                                   auditor.peak_open_households)
            if self.progress is not None:
                self.progress(len(completed), total, executed, cached,
                              auditor.aggregate)
            if (self.checkpoint_dir
                    and config.checkpoint_every
                    and since_checkpoint >= config.checkpoint_every):
                since_checkpoint = 0
                self._checkpoint(auditor)
            admit_next()

        def on_drain(index: int) -> None:
            if parked.get(index):
                loop.call_after(RETRY_DELAY_NS, retry, index)

        bus = SegmentBus(auditor.ingest, credits=config.credits,
                         on_complete=on_complete, on_drain=on_drain,
                         faults=faults)

        def offer(segment: CaptureSegment) -> None:
            if not bus.is_open(segment.household_index):
                # A late injected resend/duplicate for a household
                # whose lane already closed: nothing left to deliver.
                return
            if not bus.offer(segment):
                parked.setdefault(segment.household_index, {})[
                    segment.seq] = segment
                if faults:
                    # Injected starvation can refuse even the cursor
                    # segment, which the drain-driven retry can never
                    # unblock — poll on a timer while faults are live.
                    loop.call_after(STARVE_RETRY_NS, retry,
                                    segment.household_index)

        def retry(index: int) -> None:
            waiting = parked.get(index)
            if not waiting:
                return
            get_registry().inc("service.parked_retries")
            # Deterministic retry order; the bus re-parks what the
            # credit window still refuses.
            for seq in sorted(waiting):
                if not bus.is_open(index):
                    # An injected duplicate finished the lane while
                    # originals sat parked; drop the leftovers.
                    waiting.clear()
                    return
                segment = waiting.pop(seq)
                if not bus.offer(segment):
                    waiting[segment.seq] = segment
            if waiting and faults:
                loop.call_after(STARVE_RETRY_NS, retry, index)

        def deliver(segment: CaptureSegment, occurrence: int) -> None:
            household_index = segment.household_index
            seq = segment.seq
            if faults:
                registry = get_registry()
                if faults.fires_bounded("segment.drop", occurrence,
                                        household_index, seq):
                    # Lost in transit; the producer resends later.
                    registry.inc("faults.injected.segment.drop")
                    loop.call_after(RESEND_DELAY_NS, deliver, segment,
                                    occurrence + 1)
                    return
                if occurrence:
                    registry.inc("faults.recovered.segment.drop",
                                 occurrence)
                if faults.fires("segment.reorder", household_index,
                                seq):
                    # Landed (out of order); the bus reorders natively.
                    registry.inc("faults.recovered.segment.reorder")
            offer(segment)

        def deliver_dup(segment: CaptureSegment) -> None:
            offer(segment)
            get_registry().inc("faults.recovered.segment.dup")

        admit_cursor = 0

        def admit_next() -> None:
            nonlocal admit_cursor, executed, cached
            while (admit_cursor < len(queue)
                   and auditor.open_households < config.window):
                household = queue[admit_cursor]
                admit_cursor += 1
                # Blocks on wall time only: the pool's look-ahead, and
                # so the captures parent memory holds, is bounded by
                # the window, and none of it affects virtual time.
                tv_ip, pcap, ran, sites = next(captures)
                if ran:
                    executed += 1
                else:
                    cached += 1
                # The injected crash/hang retries spent producing the
                # capture delay its segments' arrivals.
                backoff_ns = sum(
                    HANG_TIMEOUT_NS if site == "worker.hang"
                    else RETRY_BACKOFF_NS for site in sites)
                segments = segment_record(household.index, pcap,
                                          config.segments)
                auditor.open(household, tv_ip)
                bus.open(household.index, len(segments))
                registry = get_registry()
                for segment in segments:
                    seq = segment.seq
                    if faults:
                        payload, hit = tamper_pcap_bytes(
                            faults, segment.payload, household.index,
                            seq)
                        if hit:
                            segment = CaptureSegment(
                                household.index, seq, segment.total,
                                payload)
                    jitter_ns = self._jitter_ns(household.index, seq)
                    if faults and faults.fires(
                            "segment.reorder", household.index, seq):
                        # Scramble this segment's arrival to anywhere
                        # in the household's spread.
                        registry.inc("faults.injected.segment.reorder")
                        jitter_ns = 1 + int(
                            faults.draw("segment.reorder.jitter",
                                        household.index, seq)
                            * ARRIVAL_SPREAD_NS)
                    jitter_ns += backoff_ns
                    if registry.enabled:
                        # Virtual-time lag between a household's
                        # admission and each segment's arrival.
                        registry.observe("service.arrival_lag.sim_ms",
                                         jitter_ns / 1e6)
                    loop.call_after(jitter_ns, deliver, segment, 0)
                    if faults and faults.fires(
                            "segment.dup", household.index, seq):
                        registry.inc("faults.injected.segment.dup")
                        loop.call_after(jitter_ns + DUP_DELAY_NS,
                                        deliver_dup, segment)

        # One household per task, in admission order (the index key never
        # groups two), so the look-ahead produces captures in the order
        # the window admits them.
        tasks = partition(queue, lambda household: household.index)
        with contextlib.closing(run_tasks(
                _produce, household_payloads(tasks, self.cache, faults),
                self.jobs, {household.country.value for household in queue},
                lookahead=config.window)) as captures:
            admit_next()
            while loop.pending:
                # Only a stop with households still unfolded interrupts:
                # once all are folded, the leftover events are no-op
                # retries and late duplicates, and the run is complete.
                if (self.stop_check is not None
                        and len(completed) < total
                        and self.stop_check()):
                    path = self._checkpoint(auditor)
                    raise ServiceStopped(
                        f"stop requested with "
                        f"{len(completed)}/{total} households "
                        f"folded", path)
                loop.run_to_completion(max_events=1)

        if self.checkpoint_dir:
            self._checkpoint(auditor)
        return ServiceResult(
            state=auditor.aggregate, population=self.population,
            executed=executed, cached=cached,
            resumed_households=resumed,
            segments_delivered=bus.delivered, refusals=bus.refused,
            peak_open_households=auditor.peak_open_households,
            peak_tracked_flows=auditor.peak_tracked_flows,
            peak_buffered_segments=bus.peak_buffered,
            checkpoints_written=self.checkpoints_written,
            elapsed_s=time.perf_counter() - started)

    def _checkpoint(self, auditor: IncrementalAuditor) -> Optional[str]:
        if not self.checkpoint_dir:
            return None
        with get_registry().span("service.checkpoint"):
            path = write_checkpoint(
                self.checkpoint_dir, auditor.aggregate, auditor.completed,
                population_key(self.population.seed,
                               self.population.mixes),
                faults=self.config.faults)
        self.checkpoints_written += 1
        return path


def serve_fleet(population: PopulationSpec,
                cache: Optional[ResultCache] = None,
                config: Optional[ServiceConfig] = None, jobs: int = 1,
                checkpoint_dir: Optional[str] = None,
                resume: bool = False,
                progress: Optional[ProgressFn] = None,
                stop_check: Optional[Callable[[], bool]] = None
                ) -> ServiceResult:
    """Convenience wrapper: build and run one :class:`AuditService`."""
    return AuditService(population, cache=cache, config=config,
                        jobs=jobs, checkpoint_dir=checkpoint_dir,
                        resume=resume, progress=progress,
                        stop_check=stop_check).run()
