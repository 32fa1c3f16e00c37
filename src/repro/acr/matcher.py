"""Fingerprint matching: LSH-banded candidates with Hamming tolerance.

The 64-bit video hash is split into four 16-bit bands; a query retrieves
candidates sharing at least one exact band (any hash within Hamming
distance 3 is guaranteed to share a band by pigeonhole) from the
reference library's band index, then candidates are verified with the
true Hamming distance and audio-landmark overlap.  Batch queries vote
across captures, so a 15-60 second batch resolves to a (content, offset)
even when single frames are ambiguous.  Each answer is memoized in the
library's ``match_memo``, so a capture a process has matched before
(the same content replayed in another cell or household) costs one
lookup.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Tuple

from .fingerprint import Capture, hamming_distance
from .library import BANDS, ReferenceLibrary

DEFAULT_HAMMING_TOLERANCE = BANDS - 1  # pigeonhole guarantee
MIN_VOTES_FRACTION = 0.34


class Match(NamedTuple):
    """One verified candidate for a single capture.

    Immutable, so every memo hit can share one object."""

    content_id: str
    position_s: int
    video_distance: int
    audio_overlap: int

    def __repr__(self) -> str:
        return (f"Match({self.content_id}@{self.position_s}s, "
                f"dv={self.video_distance}, da={self.audio_overlap})")


class BatchVerdict:
    """The matcher's answer for a whole batch."""

    __slots__ = ("content_id", "votes", "total", "confidence", "matches")

    def __init__(self, content_id: Optional[str], votes: int, total: int,
                 matches: List[Match]) -> None:
        self.content_id = content_id
        self.votes = votes
        self.total = total
        self.confidence = votes / total if total else 0.0
        self.matches = matches

    @property
    def recognised(self) -> bool:
        return self.content_id is not None

    def __repr__(self) -> str:
        label = self.content_id or "<no match>"
        return (f"BatchVerdict({label}, {self.votes}/{self.total} votes, "
                f"confidence={self.confidence:.2f})")


class FingerprintMatcher:
    """The server-side matcher over a reference library."""

    def __init__(self, library: ReferenceLibrary) -> None:
        self.library = library

    def match_capture(self, capture: Capture) -> Optional[Match]:
        """Best verified match for one capture, or None: the smallest
        ``(distance, -overlap)``, the first candidate on a tie.

        The answer depends only on the capture's hashes and the
        library's samples, so it is memoized in the library (which drops
        the memo on ingest)."""
        key = (capture.video_hash, tuple(capture.audio_hashes))
        memo = self.library.match_memo
        try:
            return memo[key]
        except KeyError:
            match = memo[key] = self._search(capture)
            return match

    def _search(self, capture: Capture) -> Optional[Match]:
        """:meth:`match_capture` without the memo."""
        columns = self.library.columns()
        rows = self.library.candidates(capture.video_hash)
        # (distance, -overlap, row) of the best candidate so far.
        best: Optional[Tuple[int, int, int]] = None
        query_audio = set(capture.audio_hashes)
        for row, video_hash in zip(rows, columns.video_hash[rows].tolist()):
            distance = hamming_distance(capture.video_hash, video_hash)
            if distance > DEFAULT_HAMMING_TOLERANCE:
                continue
            overlap = len(query_audio.intersection(
                self.library.landmarks(row)))
            if best is None or (distance, -overlap) < best[:2]:
                best = (distance, -overlap, row)
        if best is None:
            return None
        distance, negative_overlap, row = best
        return Match(self.library.items[columns.item_no[row]].content_id,
                     int(columns.position_s[row]), distance,
                     -negative_overlap)

    def match_batch(self, captures: List[Capture]) -> BatchVerdict:
        """Vote across a batch; a content wins with a qualified majority."""
        if not captures:
            return BatchVerdict(None, 0, 0, [])
        matches = [self.match_capture(c) for c in captures]
        found = [m for m in matches if m is not None]
        tally: Dict[str, int] = defaultdict(int)
        for match in found:
            tally[match.content_id] += 1
        if not tally:
            return BatchVerdict(None, 0, len(captures), [])
        winner, votes = max(tally.items(), key=lambda kv: kv[1])
        if votes < max(1, int(MIN_VOTES_FRACTION * len(captures))):
            return BatchVerdict(None, votes, len(captures), found)
        return BatchVerdict(winner, votes, len(captures),
                            [m for m in found if m.content_id == winner])
