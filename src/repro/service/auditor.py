"""Incremental per-household auditing over arriving capture segments.

The :class:`IncrementalAuditor` keeps one
:class:`~repro.fleet.runner.HouseholdIngest` per *open* household,
applies each arriving segment to it, folds the finished summary into
its :class:`~repro.fleet.aggregate.FleetAggregate` the moment a
household's last segment lands, and drops the pipeline — so live
memory scales with the household window, never the fleet.

Equivalence contract: segments must be applied in ``seq`` order (the
:class:`~repro.service.bus.SegmentBus` guarantees contiguity), and the
finalized summary is then byte-identical to the batch fleet's, which
feeds the same ingest the whole capture, for any cut of the capture.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..fleet.aggregate import FleetAggregate
from ..fleet.population import HouseholdSpec
from ..fleet.runner import HouseholdIngest
from ..net.columnar import FlowKey
from ..obs.metrics import get_registry
from .segments import CaptureSegment

# Not used here: perfbench's trace targets wrap
# ``auditor.summarize_household``, and a missing name fails every traced
# run.
from ..fleet.aggregate import summarize_household

__all__ = ["HouseholdIngest", "IncrementalAuditor", "summarize_household"]


class IncrementalAuditor:
    """All open household audits, the aggregate folded so far and the
    indices of the households folded into it."""

    def __init__(self, aggregate: Optional[FleetAggregate] = None,
                 completed: Iterable[int] = ()) -> None:
        self.aggregate = aggregate if aggregate is not None \
            else FleetAggregate()
        self.completed: Set[int] = set(completed)
        self._open: Dict[int, HouseholdIngest] = {}
        #: Distinct flow keys of every row applied, per open household.
        self.flow_keys: Dict[int, Set[FlowKey]] = {}
        #: Their total over the open households — the streaming tier's
        #: bounded-memory metric.
        self.tracked_flows = 0
        self.peak_open_households = 0
        self.peak_tracked_flows = 0

    def open(self, household: HouseholdSpec, tv_ip: str) -> None:
        if household.index in self._open:
            raise ValueError(
                f"household {household.index} already open")
        self._open[household.index] = HouseholdIngest(household, tv_ip)
        self.flow_keys[household.index] = set()
        self.peak_open_households = max(self.peak_open_households,
                                        len(self._open))

    def ingest(self, segment: CaptureSegment) -> None:
        """Apply one segment to its open household."""
        index = segment.household_index
        ingest = self._open[index]
        capture = ingest.pipeline.packets
        start = len(capture)
        if ingest.ingest(segment.payload, segment.seq):
            get_registry().inc("faults.degraded.segments")
        keys = self.flow_keys[index]
        known = len(keys)
        keys.update(capture.flow_keys(start, len(capture)))
        self.tracked_flows += len(keys) - known
        self.peak_tracked_flows = max(self.peak_tracked_flows,
                                      self.tracked_flows)

    def finalize(self, household_index: int) -> Dict[str, object]:
        """Summarize, fold and release one household; refuses to fold
        a household twice."""
        if household_index in self.completed:
            raise ValueError(
                f"household {household_index} already folded")
        summary = self._open.pop(household_index).summarize()
        self.tracked_flows -= len(self.flow_keys.pop(household_index))
        self.aggregate.fold(summary)
        self.completed.add(household_index)
        return summary

    @property
    def open_households(self) -> int:
        return len(self._open)

    def __repr__(self) -> str:
        return (f"IncrementalAuditor({len(self._open)} open, "
                f"{len(self.completed)} folded)")
