"""The per-sample reference library, kept as the oracle for the columnar
one.

:class:`OracleLibrary` is the build ``ReferenceLibrary`` used before it
held its samples as numpy columns: one :class:`ReferenceEntry` per
sample, fingerprinted through the memoized ``capture_batch`` in chunks
of ``INGEST_CHUNK``.  :func:`column_rows` and :func:`entry_rows` give
both builds the same row form, so they compare directly.
"""

from typing import List, Optional

from repro.acr.fingerprint import capture_batch
from repro.acr.library import (DEFAULT_SAMPLE_INTERVAL_S, INGEST_CHUNK,
                               MAX_REFERENCE_SECONDS)
from repro.testbed import assets


class ReferenceEntry:
    """One reference sample: which content, where, and its hashes."""

    __slots__ = ("content_id", "position_s", "video_hash", "audio_hashes")

    def __init__(self, content_id, position_s, video_hash, audio_hashes):
        self.content_id = content_id
        self.position_s = position_s
        self.video_hash = video_hash
        self.audio_hashes = audio_hashes


class OracleLibrary:
    """A list of :class:`ReferenceEntry`, built as the library was."""

    def __init__(self, sample_interval_s: int = DEFAULT_SAMPLE_INTERVAL_S,
                 max_seconds: int = MAX_REFERENCE_SECONDS) -> None:
        self.sample_interval_s = sample_interval_s
        self.max_seconds = max_seconds
        self.entries: List[ReferenceEntry] = []
        self._content_ids = set()

    def ingest(self, item, max_seconds: Optional[int] = None) -> int:
        if item.content_id in self._content_ids:
            return 0
        cap = self.max_seconds if max_seconds is None else max_seconds
        positions = range(0, min(item.duration_s, cap),
                          self.sample_interval_s)
        captures = []
        for start in range(0, len(positions), INGEST_CHUNK):
            captures += capture_batch(item,
                                      positions[start:start + INGEST_CHUNK])
        self._content_ids.add(item.content_id)
        self.entries += [
            ReferenceEntry(item.content_id, position, capture.video_hash,
                           capture.audio_hashes)
            for position, capture in zip(positions, captures)]
        return len(positions)

    def ingest_all(self, items, max_seconds: Optional[int] = None) -> int:
        return sum(self.ingest(item, max_seconds) for item in items)

    def __len__(self) -> int:
        return len(self.entries)


def shipped_oracle(country: str, seed: int = 0) -> OracleLibrary:
    """The oracle build of ``assets.reference_library(country, seed)``:
    the same items with the same per-item caps, in the same order."""
    library = assets.media_library(country, seed)
    oracle = OracleLibrary()
    oracle.ingest_all(library.shows)
    oracle.ingest_all(library.ads)
    oracle.ingest_all(library.live_feeds, max_seconds=900)
    oracle.ingest_all(library.movies, max_seconds=240)
    oracle.ingest_all(library.episodes, max_seconds=240)
    return oracle


def column_rows(reference):
    """``(content_id, position_s, video_hash, landmarks)`` of every row
    of a ``ReferenceLibrary``, as Python ints and lists, landmarks read
    (and so filled) through ``ReferenceLibrary.landmarks``."""
    columns = reference.columns()
    return [(reference.items[item_no].content_id, position, video_hash,
             reference.landmarks(row))
            for row, (item_no, position, video_hash) in enumerate(zip(
                columns.item_no.tolist(), columns.position_s.tolist(),
                columns.video_hash.tolist()))]


def entry_rows(oracle: OracleLibrary):
    """The same rows from an :class:`OracleLibrary`."""
    return [(entry.content_id, entry.position_s, entry.video_hash,
             list(entry.audio_hashes)) for entry in oracle.entries]
