"""Server-side reference fingerprint database.

The ACR operator pre-fingerprints its content library ("movies, ads, live
feed", Figure 1); the matcher then recognises screen captures against it.
The library also owns the LSH band index the matcher queries: one index
per library, shared by every matcher over it.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..media.content import ContentItem
from .fingerprint import capture_batch

DEFAULT_SAMPLE_INTERVAL_S = 4
MAX_REFERENCE_SECONDS = 2700  # fingerprint the first N seconds per item
#: Positions fingerprinted per batch: large enough to amortise numpy's
#: per-call overhead, small enough to keep temporaries near 1-2 MB.
INGEST_CHUNK = 64

#: The 64-bit video hash is split into four 16-bit LSH bands.
BANDS = 4
BAND_BITS = 16
BAND_VALUES = 1 << BAND_BITS

#: ``(order, offsets)``: see :func:`index_bands`.
BandIndex = Tuple[np.ndarray, np.ndarray]


def bands_of(video_hash: int) -> Tuple[int, ...]:
    """The four 16-bit bands of a 64-bit hash, most significant first."""
    mask = BAND_VALUES - 1
    return tuple((video_hash >> (BAND_BITS * (BANDS - 1 - i))) & mask
                 for i in range(BANDS))


def index_bands(video_hashes: Sequence[int]) -> BandIndex:
    """The band index over ``video_hashes`` as CSR arrays.

    ``order[b]`` holds the entry indexes sorted by their band-``b``
    value, and ``order[b, offsets[b, v]:offsets[b, v + 1]]`` is the run
    of entries whose band ``b`` equals ``v``.  The sort is stable, so
    every run lists its entries in ascending entry order; matching's
    candidate order and tie-breaks depend on that.
    """
    hashes = np.array(video_hashes, dtype=np.uint64)
    order = np.empty((BANDS, len(hashes)), dtype=np.int32)
    offsets = np.zeros((BANDS, BAND_VALUES + 1), dtype=np.int32)
    for band_no in range(BANDS):
        shift = np.uint64(BAND_BITS * (BANDS - 1 - band_no))
        values = ((hashes >> shift)
                  & np.uint64(BAND_VALUES - 1)).astype(np.uint16)
        order[band_no] = np.argsort(values, kind="stable")
        offsets[band_no, 1:] = np.cumsum(
            np.bincount(values, minlength=BAND_VALUES))
    return order, offsets


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
        self._index: Optional[BandIndex] = None

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
        self._index = None
        return len(positions)

    def ingest_all(self, items: Iterable[ContentItem],
                   max_seconds: Optional[int] = None) -> int:
        return sum(self.ingest(item, max_seconds) for item in items)

    def band_index(self) -> BandIndex:
        """The band index over the current entries, built on first use
        after an ingest."""
        if self._index is None:
            self._index = index_bands(
                [entry.video_hash for entry in self.entries])
        return self._index

    def band_run(self, band_no: int, value: int) -> List[int]:
        """Indexes of the entries whose band ``band_no`` is ``value``,
        ascending."""
        order, offsets = self.band_index()
        return order[band_no, offsets[band_no, value]:
                     offsets[band_no, value + 1]].tolist()

    def candidates(self, video_hash: int) -> List[int]:
        """Indexes of the entries sharing at least one band with
        ``video_hash``: each band's run in turn, first occurrence kept."""
        return list(dict.fromkeys(chain.from_iterable(
            self.band_run(band_no, value)
            for band_no, value in enumerate(bands_of(video_hash)))))

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
