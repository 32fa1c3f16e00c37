"""The ACR backend: ingestion, matching, and viewing-history assembly.

The paper audits the client side of this black box; we also implement the
server so the full Figure-1 loop runs: fingerprints arrive, get matched
against the reference library, and accumulate into per-device viewing
sessions.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.clock import NS_PER_SECOND
from .fingerprint import FingerprintBatch
from .library import ReferenceLibrary
from .matcher import BatchVerdict, FingerprintMatcher

SESSION_GAP_NS = 120 * NS_PER_SECOND  # merge events closer than 2 minutes


class ViewingEvent:
    """One recognised batch: device saw content at a point in time."""

    __slots__ = ("device_id", "at_ns", "content_id", "confidence")

    def __init__(self, device_id: str, at_ns: int, content_id: str,
                 confidence: float) -> None:
        self.device_id = device_id
        self.at_ns = at_ns
        self.content_id = content_id
        self.confidence = confidence

    def __repr__(self) -> str:
        return (f"ViewingEvent({self.device_id}, t={self.at_ns / 1e9:.0f}s, "
                f"{self.content_id})")


class ViewingSession:
    """A maximal run of consecutive events for the same content."""

    __slots__ = ("device_id", "content_id", "start_ns", "end_ns", "events")

    def __init__(self, event: ViewingEvent) -> None:
        self.device_id = event.device_id
        self.content_id = event.content_id
        self.start_ns = event.at_ns
        self.end_ns = event.at_ns
        self.events = 1

    def absorb(self, event: ViewingEvent) -> bool:
        """Extend with an event if contiguous; returns success."""
        if event.content_id != self.content_id:
            return False
        if event.at_ns - self.end_ns > SESSION_GAP_NS:
            return False
        self.end_ns = event.at_ns
        self.events += 1
        return True

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / NS_PER_SECOND

    def __repr__(self) -> str:
        return (f"ViewingSession({self.device_id}: {self.content_id}, "
                f"{self.duration_s:.0f}s, {self.events} events)")


class AcrBackend:
    """One operator's server stack (Alphonso for LG, Samsung Ads)."""

    def __init__(self, operator: str, library: ReferenceLibrary) -> None:
        self.operator = operator
        self.library = library
        self.matcher = FingerprintMatcher(library)
        self.batches_received = 0
        self.batches_recognised = 0
        self._sessions: Dict[str, List[ViewingSession]] = {}

    def ingest(self, batch: FingerprintBatch, at_ns: int) -> BatchVerdict:
        """Process one uploaded batch; returns the match verdict."""
        self.batches_received += 1
        verdict = self.matcher.match_batch(batch.captures)
        if verdict.recognised:
            self.batches_recognised += 1
            event = ViewingEvent(batch.device_id, at_ns,
                                 verdict.content_id, verdict.confidence)
            self._sessionize(event)
        return verdict

    def ingest_raw(self, raw: bytes, at_ns: int) -> BatchVerdict:
        """Ingest a wire-encoded batch (exercises the codec)."""
        return self.ingest(FingerprintBatch.decode(raw), at_ns)

    def _sessionize(self, event: ViewingEvent) -> None:
        sessions = self._sessions.setdefault(event.device_id, [])
        if sessions and sessions[-1].absorb(event):
            return
        sessions.append(ViewingSession(event))

    # -- queries -------------------------------------------------------------

    def sessions_for(self, device_id: str) -> List[ViewingSession]:
        return list(self._sessions.get(device_id, []))

    @property
    def recognition_rate(self) -> float:
        if not self.batches_received:
            return 0.0
        return self.batches_recognised / self.batches_received

    def __repr__(self) -> str:
        return (f"AcrBackend({self.operator!r}, "
                f"{self.batches_received} batches, "
                f"{self.recognition_rate:.0%} recognised)")
