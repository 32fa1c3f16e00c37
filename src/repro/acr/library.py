"""Server-side reference fingerprint database.

The ACR operator pre-fingerprints its content library ("movies, ads, live
feed", Figure 1); the matcher then recognises screen captures against it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..media.content import ContentItem
from .fingerprint import capture_batch

DEFAULT_SAMPLE_INTERVAL_S = 4
MAX_REFERENCE_SECONDS = 2700  # fingerprint the first N seconds per item
#: Positions fingerprinted per batch: large enough to amortise numpy's
#: per-call overhead, small enough to keep temporaries near 1-2 MB.
INGEST_CHUNK = 64


class ReferenceEntry:
    """One reference sample: which content, where, and its hashes."""

    __slots__ = ("content_id", "position_s", "video_hash", "audio_hashes")

    def __init__(self, content_id: str, position_s: int, video_hash: int,
                 audio_hashes: List[int]) -> None:
        self.content_id = content_id
        self.position_s = position_s
        self.video_hash = video_hash
        self.audio_hashes = audio_hashes

    def __repr__(self) -> str:
        return (f"ReferenceEntry({self.content_id}@{self.position_s}s, "
                f"{self.video_hash:#018x})")


class ReferenceLibrary:
    """All reference samples for an operator's content catalog."""

    def __init__(self, sample_interval_s: int = DEFAULT_SAMPLE_INTERVAL_S,
                 max_seconds: int = MAX_REFERENCE_SECONDS) -> None:
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.sample_interval_s = sample_interval_s
        self.max_seconds = max_seconds
        self.entries: List[ReferenceEntry] = []
        self._content_ids: Dict[str, ContentItem] = {}

    def ingest(self, item: ContentItem,
               max_seconds: Optional[int] = None) -> int:
        """Fingerprint one item; returns the number of samples added.

        ``max_seconds`` overrides the library-wide depth cap for this item
        (operators fingerprint broadcast content in full but may only keep
        a prefix of a long-tail movie catalog).
        """
        if item.content_id in self._content_ids:
            return 0
        cap = self.max_seconds if max_seconds is None else max_seconds
        positions = range(0, min(item.duration_s, cap),
                          self.sample_interval_s)
        captures = []
        for start in range(0, len(positions), INGEST_CHUNK):
            captures += capture_batch(item,
                                      positions[start:start + INGEST_CHUNK])
        # Registered only once every chunk is fingerprinted, so a failure
        # mid-item leaves no half-ingested item behind.
        self._content_ids[item.content_id] = item
        self.entries += [
            ReferenceEntry(item.content_id, position, capture.video_hash,
                           capture.audio_hashes)
            for position, capture in zip(positions, captures)]
        return len(positions)

    def ingest_all(self, items: Iterable[ContentItem],
                   max_seconds: Optional[int] = None) -> int:
        return sum(self.ingest(item, max_seconds) for item in items)

    def item(self, content_id: str) -> ContentItem:
        try:
            return self._content_ids[content_id]
        except KeyError:
            raise KeyError(f"content not in library: {content_id!r}") \
                from None

    def knows(self, content_id: str) -> bool:
        return content_id in self._content_ids

    @property
    def content_count(self) -> int:
        return len(self._content_ids)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (f"ReferenceLibrary({self.content_count} items, "
                f"{len(self.entries)} samples)")
