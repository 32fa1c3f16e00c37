"""Server-side reference fingerprint database.

The ACR operator pre-fingerprints its content library ("movies, ads, live
feed", Figure 1); the matcher then recognises screen captures against it.
The library holds its samples as numpy columns and owns the LSH band
index the matcher queries, and the matcher's memo of finished matches:
one of each per library, shared by every matcher over it.

Ingest computes only what the band index needs, the video hashes.  The
matcher reads a sample's audio landmarks only once its video hash is
within the Hamming tolerance of a capture, which few samples ever are,
so :meth:`ReferenceLibrary.landmarks` fingerprints a sample's audio on
first use, together with the rest of its ingest chunk.  Landmarks are a
pure function of (item, position), so the order of first uses cannot
change a value, and a worker forked from a warm process fills its own
copy of the store.
"""

from __future__ import annotations

from itertools import chain
from typing import (TYPE_CHECKING, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from ..media.content import ContentItem
from ..media.frames import render_audio_batch, render_frame_batch
from ..obs.metrics import get_registry
from .fingerprint import (AUDIO_LANDMARKS, audio_fingerprint_batch,
                          video_fingerprint_batch)

if TYPE_CHECKING:
    from .matcher import Match

DEFAULT_SAMPLE_INTERVAL_S = 4
MAX_REFERENCE_SECONDS = 2700  # fingerprint the first N seconds per item
#: Positions fingerprinted per batch, at ingest and at each landmark
#: fill: large enough to amortise numpy's per-call overhead, small
#: enough to keep temporaries near 1-2 MB.
INGEST_CHUNK = 64

#: The 64-bit video hash is split into four 16-bit LSH bands.
BANDS = 4
BAND_BITS = 16
BAND_VALUES = 1 << BAND_BITS

#: ``(order, offsets)``: see :func:`index_bands`.
BandIndex = Tuple[np.ndarray, np.ndarray]

#: ``(video hash, audio hashes)``: what a single capture's match
#: depends on besides the library itself.
MatchKey = Tuple[int, Tuple[int, ...]]


def bands_of(video_hash: int) -> Tuple[int, ...]:
    """The four 16-bit bands of a 64-bit hash, most significant first."""
    mask = BAND_VALUES - 1
    return tuple((video_hash >> (BAND_BITS * (BANDS - 1 - i))) & mask
                 for i in range(BANDS))


def index_bands(video_hashes: Sequence[int]) -> BandIndex:
    """The band index over ``video_hashes`` as CSR arrays.

    ``order[b]`` holds the row numbers sorted by their band-``b``
    value, and ``order[b, offsets[b, v]:offsets[b, v + 1]]`` is the run
    of rows whose band ``b`` equals ``v``.  The sort is stable, so
    every run lists its rows in ascending order; matching's candidate
    order and tie-breaks depend on that.
    """
    hashes = np.asarray(video_hashes, dtype=np.uint64)
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


class LibraryColumns(NamedTuple):
    """Every reference sample, one row each, in ingest order (so
    ``item_no`` ascends).  A row's audio landmarks are not a column:
    read them through :meth:`ReferenceLibrary.landmarks`."""

    item_no: np.ndarray      # int32: index into ``ReferenceLibrary.items``
    position_s: np.ndarray   # int32
    video_hash: np.ndarray   # uint64


def _empty_columns() -> LibraryColumns:
    return LibraryColumns(np.empty(0, np.int32), np.empty(0, np.int32),
                          np.empty(0, np.uint64))


class ReferenceLibrary:
    """All reference samples for an operator's content catalog, held as
    :class:`LibraryColumns` plus a landmark store filled on first use:
    no Python object per sample."""

    def __init__(self) -> None:
        #: Every ingested item, in ingest order; ``item_no`` indexes it.
        self.items: List[ContentItem] = []
        self._item_nos: Dict[str, int] = {}
        self._columns = _empty_columns()
        #: One block per item ingested since the columns were last joined.
        self._blocks: List[LibraryColumns] = []
        self._index: Optional[BandIndex] = None
        #: Each row's landmarks (uint32, ``(n, AUDIO_LANDMARKS)``), valid
        #: where ``_filled`` holds 1; both grow when the columns join.
        self._landmarks = np.zeros((0, AUDIO_LANDMARKS), np.uint32)
        self._filled = bytearray()
        #: ``FingerprintMatcher.match_capture``'s answers over the
        #: current samples; dropped with the band index on ingest.
        self.match_memo: Dict[MatchKey, Optional["Match"]] = {}

    def ingest(self, item: ContentItem,
               max_seconds: Optional[int] = None) -> int:
        """Hash one item's frames; returns the number of samples added.

        ``max_seconds`` overrides :data:`MAX_REFERENCE_SECONDS` for this item
        (operators fingerprint broadcast content in full but may only keep
        a prefix of a long-tail movie catalog).  The audio is left to
        :meth:`landmarks`.
        """
        if item.content_id in self._item_nos:
            return 0
        cap = MAX_REFERENCE_SECONDS if max_seconds is None else max_seconds
        positions = range(0, min(item.duration_s, cap),
                          DEFAULT_SAMPLE_INTERVAL_S)
        chunks = [video_fingerprint_batch(render_frame_batch(
                      item, positions[start:start + INGEST_CHUNK]))
                  for start in range(0, len(positions), INGEST_CHUNK)]
        # Registered only once every chunk is hashed, so a failure
        # mid-item leaves no half-ingested item behind.
        item_no = len(self.items)
        self.items.append(item)
        self._item_nos[item.content_id] = item_no
        if chunks:
            self._blocks.append(LibraryColumns(
                np.full(len(positions), item_no, np.int32),
                np.array(positions, np.int32), np.concatenate(chunks)))
        self._index = None
        self.match_memo.clear()
        return len(positions)

    def ingest_all(self, items: Iterable[ContentItem],
                   max_seconds: Optional[int] = None) -> int:
        return sum(self.ingest(item, max_seconds) for item in items)

    def columns(self) -> LibraryColumns:
        """The sample columns, joined on first use after an ingest."""
        if self._blocks:
            self._columns = LibraryColumns(*map(
                np.concatenate, zip(self._columns, *self._blocks)))
            self._blocks.clear()
            rows = len(self._columns.item_no)
            # Zeroed pages stay unmapped until a fill writes them.
            store = np.zeros((rows, AUDIO_LANDMARKS), np.uint32)
            store[:len(self._landmarks)] = self._landmarks
            self._landmarks = store
            self._filled += bytes(rows - len(self._filled))
        return self._columns

    def landmarks(self, row: int) -> List[int]:
        """Row ``row``'s audio landmarks.  The first read of a row
        fingerprints its whole window: the row's ``INGEST_CHUNK``-row
        chunk of its item, as ingest cut it."""
        self.columns()
        if not self._filled[row]:
            self._fill(row)
        return self._landmarks[row].tolist()

    def _fill(self, row: int) -> None:
        """Fingerprint the audio of ``row``'s window into the store.

        The window is marked filled only once its landmarks are stored,
        so a fill that raises is retried by the next read.
        """
        columns = self.columns()
        row = range(len(columns.item_no))[row]
        item_no = int(columns.item_no[row])
        first, end = np.searchsorted(columns.item_no,
                                     [item_no, item_no + 1]).tolist()
        start = row - (row - first) % INGEST_CHUNK
        stop = min(start + INGEST_CHUNK, end)
        registry = get_registry()
        with registry.span("acr.landmarks"):
            self._landmarks[start:stop] = audio_fingerprint_batch(
                render_audio_batch(self.items[item_no],
                                   columns.position_s[start:stop].tolist()))
        self._filled[start:stop] = b"\x01" * (stop - start)
        registry.inc("acr.library.landmark_fills")

    def band_index(self) -> BandIndex:
        """The band index over the current samples, built on first use
        after an ingest."""
        if self._index is None:
            self._index = index_bands(self.columns().video_hash)
        return self._index

    def band_run(self, band_no: int, value: int) -> List[int]:
        """Rows of the samples whose band ``band_no`` is ``value``,
        ascending."""
        order, offsets = self.band_index()
        return order[band_no, offsets[band_no, value]:
                     offsets[band_no, value + 1]].tolist()

    def candidates(self, video_hash: int) -> List[int]:
        """Rows of the samples sharing at least one band with
        ``video_hash``: each band's run in turn, first occurrence kept."""
        return list(dict.fromkeys(chain.from_iterable(
            self.band_run(band_no, value)
            for band_no, value in enumerate(bands_of(video_hash)))))

    def item(self, content_id: str) -> ContentItem:
        try:
            return self.items[self._item_nos[content_id]]
        except KeyError:
            raise KeyError(f"content not in library: {content_id!r}") \
                from None

    @property
    def content_count(self) -> int:
        return len(self.items)

    def __len__(self) -> int:
        return len(self.columns().position_s)

    def __repr__(self) -> str:
        return (f"ReferenceLibrary({self.content_count} items, "
                f"{len(self)} samples)")
