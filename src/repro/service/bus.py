"""The segment bus: out-of-order arrival, in-order delivery, backpressure.

Per household the bus keeps an ingestion *cursor* (next segment seq the
auditor needs) and grants a credit window of ``credits`` segments ahead
of it.  Admission is TCP-style: a segment is

* **ignored** if ``seq < cursor`` (duplicate — e.g. a resume replay);
* **admitted** if ``cursor <= seq < cursor + credits`` — buffered, then
  every contiguous run starting at the cursor is delivered to the sink
  immediately, advancing the cursor and freeing credit;
* **refused** if ``seq >= cursor + credits`` — backpressure.  The
  producer must hold the segment and retry after the household drains.

Because the segment at ``cursor`` itself is always inside the window,
a refused producer can never starve the one segment that would unblock
it: credit exhaustion pauses a household without deadlock.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..faults import NULL_PLAN, FaultPlan
from ..obs.metrics import get_registry
from .segments import CaptureSegment

#: Default per-household credit window (segments buffered ahead of the
#: ingestion cursor).
DEFAULT_CREDITS = 4

SinkFn = Callable[[CaptureSegment], None]
CompleteFn = Callable[[int], None]
DrainFn = Callable[[int], None]


class _HouseholdLane(object):
    __slots__ = ("cursor", "total", "buffered")

    def __init__(self, total: int) -> None:
        self.cursor = 0
        self.total = total
        self.buffered: Dict[int, CaptureSegment] = {}


class SegmentBus:
    """Admit, reorder and deliver capture segments per household."""

    def __init__(self, sink: SinkFn, credits: int = DEFAULT_CREDITS,
                 on_complete: Optional[CompleteFn] = None,
                 on_drain: Optional[DrainFn] = None,
                 faults: FaultPlan = NULL_PLAN) -> None:
        if credits <= 0:
            raise ValueError("credit window must be positive")
        self._sink = sink
        self.credits = credits
        self._on_complete = on_complete
        self._on_drain = on_drain
        self._faults = faults
        # (household, seq) -> injected starvation refusals so far.
        self._starved: Dict[Tuple[int, int], int] = {}
        self._lanes: Dict[int, _HouseholdLane] = {}
        # Telemetry for the bounded-memory assertions.
        self.delivered = 0
        self.refused = 0
        self.duplicates = 0
        self.peak_buffered = 0

    # -- lifecycle --------------------------------------------------------------

    def open(self, household_index: int, total_segments: int) -> None:
        """Open a lane; must precede any offer for the household."""
        if total_segments <= 0:
            raise ValueError("household needs at least one segment")
        if household_index in self._lanes:
            raise ValueError(f"lane {household_index} already open")
        self._lanes[household_index] = _HouseholdLane(total_segments)

    def offer(self, segment: CaptureSegment) -> bool:
        """Try to admit one segment; False means backpressure (retry
        after the household's next drain)."""
        lane = self._lanes[segment.household_index]
        if segment.total != lane.total:
            raise ValueError(
                f"household {segment.household_index}: segment claims "
                f"{segment.total} total, lane opened with {lane.total}")
        if segment.seq < lane.cursor or segment.seq in lane.buffered:
            self.duplicates += 1
            get_registry().inc("bus.duplicates")
            return True
        if segment.seq >= lane.cursor + self.credits:
            self.refused += 1
            get_registry().inc("bus.refused")
            return False
        if self._faults:
            slot = (segment.household_index, segment.seq)
            occurrence = self._starved.get(slot, 0)
            if self._faults.fires_bounded("segment.starve", occurrence,
                                          *slot):
                # Injected credit starvation: refuse an admissible
                # offer.  Bounded per (household, seq), so a retrying
                # producer is always admitted within the attempt cap.
                self._starved[slot] = occurrence + 1
                self.refused += 1
                registry = get_registry()
                registry.inc("bus.refused")
                registry.inc("faults.injected.segment.starve")
                return False
            if occurrence:
                del self._starved[slot]
                get_registry().inc("faults.recovered.segment.starve")
        lane.buffered[segment.seq] = segment
        self.peak_buffered = max(self.peak_buffered,
                                 self.buffered_segments)
        registry = get_registry()
        if registry.enabled:
            # Credit-window occupancy across all open lanes, as a
            # fraction of what the windows could hold.
            registry.gauge_max("bus.buffered_peak", self.peak_buffered)
            registry.gauge_max(
                "bus.credit_occupancy",
                round(self.buffered_segments
                      / (self.credits * max(1, self.open_lanes)), 4))
        self._drain(segment.household_index, lane)
        return True

    def _drain(self, household_index: int, lane: _HouseholdLane) -> None:
        progressed = False
        while lane.cursor in lane.buffered:
            segment = lane.buffered.pop(lane.cursor)
            lane.cursor += 1
            self.delivered += 1
            get_registry().inc("bus.delivered")
            progressed = True
            self._sink(segment)
        if lane.cursor >= lane.total:
            del self._lanes[household_index]
            if self._on_complete is not None:
                self._on_complete(household_index)
        elif progressed and self._on_drain is not None:
            # Credit freed while the lane is still open: let paused
            # producers re-offer what the window previously refused.
            self._on_drain(household_index)

    # -- introspection ----------------------------------------------------------

    @property
    def open_lanes(self) -> int:
        return len(self._lanes)

    @property
    def buffered_segments(self) -> int:
        return sum(len(lane.buffered) for lane in self._lanes.values())

    def is_open(self, household_index: int) -> bool:
        """Is this household's lane still accepting offers?  (A lane
        closes the instant its last segment delivers, so late injected
        duplicates and resends must check before offering.)"""
        return household_index in self._lanes

    def cursor(self, household_index: int) -> int:
        return self._lanes[household_index].cursor

    def __repr__(self) -> str:
        return (f"SegmentBus({self.open_lanes} lanes, "
                f"{self.delivered} delivered, {self.refused} refused, "
                f"{self.buffered_segments} buffered)")
