"""Incremental per-household auditing over arriving capture segments.

One :class:`HouseholdIngest` wraps an incrementally-extended
:class:`~repro.analysis.pipeline.AuditPipeline`; the
:class:`IncrementalAuditor` keeps one per *open* household, folds the
finished summary into :class:`~repro.service.state.LiveState` the
moment a household's last segment lands, and drops the pipeline — so
live memory scales with the household window, never the fleet.

Equivalence contract: segments must be applied in ``seq`` order (the
:class:`~repro.service.bus.SegmentBus` guarantees contiguity), and the
finalized summary is then byte-identical to the batch path's
``summarize_household`` over the one-shot pipeline, for any cut of the
capture.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.pipeline import AuditPipeline
from ..faults import salvage_pcap_bytes
from ..findings import Finding
from ..fleet.aggregate import summarize_household
from ..fleet.population import HouseholdSpec
from ..net.addresses import Ipv4Address
from ..net.columnar import FlowKey
from ..net.pcap import PcapError
from ..obs.metrics import get_registry
from .segments import PCAP_HEADER_LEN, CaptureSegment
from .state import LiveState


class HouseholdIngest:
    """Streaming audit state for one in-flight household."""

    __slots__ = ("household", "pipeline", "packet_count", "pcap_len",
                 "segments_ingested", "findings", "flow_keys")

    def __init__(self, household: HouseholdSpec, tv_ip: str) -> None:
        self.household = household
        self.pipeline = AuditPipeline.incremental(Ipv4Address.parse(tv_ip))
        self.packet_count = 0
        #: Reassembled capture size; starts at the global header the
        #: batch capture carries once, then adds each segment's records.
        self.pcap_len = PCAP_HEADER_LEN
        self.segments_ingested = 0
        #: Degradation findings, one per quarantined record — empty on
        #: any clean capture.
        self.findings: List[Finding] = []
        #: Distinct flow keys of every row applied so far.
        self.flow_keys: Set[FlowKey] = set()

    def ingest(self, segment: CaptureSegment) -> None:
        """Extend the pipeline with one (in-order) segment.

        A segment the decode rejects is quarantined, not fatal:
        the decodable records are salvaged and applied, each dropped
        record becomes a degradation finding, and byte/packet
        accounting covers only what was actually audited.
        """
        try:
            applied = self._extend(segment.payload)
            applied_bytes = segment.record_bytes
        except (PcapError, ValueError):
            applied, applied_bytes = self._quarantine(segment)
        self.packet_count += applied
        self.pcap_len += applied_bytes
        self.segments_ingested += 1

    def _quarantine(self, segment: CaptureSegment):
        """Recover what a rejected segment still holds.

        ``extend_pcap_bytes`` is all or nothing (a segment that fails to
        decode leaves the pipeline unchanged), so the salvaged records
        simply re-extend it.
        """
        registry = get_registry()
        registry.inc("faults.degraded.segments")
        household = self.household
        clean, drops = salvage_pcap_bytes(segment.payload)
        applied = self._extend(clean) \
            if len(clean) > PCAP_HEADER_LEN else 0
        for record_index, reason in drops:
            self.findings.append(Finding.degradation(
                household.label, household.index, segment.seq,
                record_index, reason))
        registry.inc("faults.degraded.records", len(drops))
        return applied, max(len(clean) - PCAP_HEADER_LEN, 0)

    def _extend(self, raw: bytes) -> int:
        """Apply one pcap-framed segment and collect its rows' flow
        keys; returns the applied packet count."""
        capture = self.pipeline.packets
        start = len(capture)
        applied = self.pipeline.extend_pcap_bytes(raw)
        self.flow_keys.update(capture.flow_keys(start, start + applied))
        return applied

    @property
    def tracked_flows(self) -> int:
        return len(self.flow_keys)

    def summarize(self) -> Dict[str, object]:
        """The finished household summary (batch-identical).

        ``findings`` appears only when records were quarantined, so a
        clean household's summary — and everything folded from it — is
        identical to one produced before the fault layer existed.
        """
        summary = summarize_household(self.household, self.pipeline,
                                      self.packet_count, self.pcap_len)
        if self.findings:
            summary["findings"] = list(self.findings)
        return summary


class IncrementalAuditor:
    """All open household audits plus the fold into live state."""

    def __init__(self, state: Optional[LiveState] = None) -> None:
        self.state = state if state is not None else LiveState()
        self._open: Dict[int, HouseholdIngest] = {}
        self.peak_open_households = 0
        self.peak_tracked_flows = 0
        self.segments_ingested = 0

    # -- lifecycle --------------------------------------------------------------

    def open(self, household: HouseholdSpec, tv_ip: str
             ) -> HouseholdIngest:
        if household.index in self._open:
            raise ValueError(
                f"household {household.index} already open")
        ingest = HouseholdIngest(household, tv_ip)
        self._open[household.index] = ingest
        self.peak_open_households = max(self.peak_open_households,
                                        len(self._open))
        return ingest

    def ingest(self, segment: CaptureSegment) -> None:
        """Apply one segment to its open household."""
        ingest = self._open[segment.household_index]
        ingest.ingest(segment)
        self.segments_ingested += 1
        self.peak_tracked_flows = max(self.peak_tracked_flows,
                                      self.tracked_flows)

    def finalize(self, household_index: int) -> Dict[str, object]:
        """Summarize, fold into live state, and release the household."""
        ingest = self._open.pop(household_index)
        summary = ingest.summarize()
        self.state.fold(household_index, summary)
        return summary

    # -- introspection ----------------------------------------------------------

    @property
    def open_households(self) -> int:
        return len(self._open)

    @property
    def tracked_flows(self) -> int:
        """Distinct flows seen so far across every open household —
        the streaming tier's bounded-memory metric."""
        return sum(ingest.tracked_flows
                   for ingest in self._open.values())

    def cursors(self) -> Dict[int, int]:
        """Per-open-household count of segments already applied."""
        return {index: ingest.segments_ingested
                for index, ingest in sorted(self._open.items())}

    def __repr__(self) -> str:
        return (f"IncrementalAuditor({len(self._open)} open, "
                f"{self.segments_ingested} segments ingested)")
