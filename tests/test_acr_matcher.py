"""Tests for the reference library, its band index and the LSH-banded
matcher.

The oracle for the library's CSR band index is the index it replaced: a
dict of lists per band, built by every matcher and rebuilt whenever the
library had grown (:class:`OracleMatcher`).  It matches over the
per-sample build the columns replaced (``reference_oracle``).
"""

import gc
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acr import (FingerprintMatcher, ReferenceLibrary, bands_of,
                       capture_state)
from repro.acr import fingerprint as fingerprint_module
from repro.acr import library as library_module
from repro.acr import matcher as matcher_module
from repro.acr.fingerprint import (_FINGERPRINT_CACHE, AUDIO_LANDMARKS,
                                   audio_fingerprint_batch,
                                   clear_fingerprint_cache, hamming_distance)
from repro.acr.library import (BAND_BITS, BAND_VALUES, BANDS,
                               DEFAULT_SAMPLE_INTERVAL_S, INGEST_CHUNK)
from repro.acr.matcher import DEFAULT_HAMMING_TOLERANCE, Match
from repro.media import (ContentItem, ContentKind, PlayState, build_channel,
                         standard_library)
from repro.media import frames as frames_module
from repro.media.frames import render_audio_batch
from repro.obs import disable, enable
from repro.sim import seconds
from repro.testbed import assets
from reference_oracle import (OracleLibrary, column_rows, entry_rows,
                              shipped_oracle)


class OracleMatcher(FingerprintMatcher):
    """The matcher over an :class:`OracleLibrary`, with its own
    dict-of-lists band index, rebuilt on the first query after the
    library grows."""

    def __init__(self, library: OracleLibrary,
                 hamming_tolerance: int = DEFAULT_HAMMING_TOLERANCE
                 ) -> None:
        super().__init__(library)
        self.hamming_tolerance = hamming_tolerance
        self._band_index = [defaultdict(list) for __ in range(BANDS)]
        self._indexed_entries = 0
        self.reindex()

    def reindex(self) -> None:
        for band in self._band_index:
            band.clear()
        for position, entry in enumerate(self.library.entries):
            for band_no, value in enumerate(bands_of(entry.video_hash)):
                self._band_index[band_no][value].append(position)
        self._indexed_entries = len(self.library.entries)

    def _candidates(self, video_hash):
        seen = set()
        out = []
        for band_no, value in enumerate(bands_of(video_hash)):
            for entry_index in self._band_index[band_no].get(value, ()):
                if entry_index not in seen:
                    seen.add(entry_index)
                    out.append(entry_index)
        return out

    def match_capture(self, capture):
        if self._indexed_entries != len(self.library.entries):
            self.reindex()
        best = None
        query_audio = set(capture.audio_hashes)
        for entry_index in self._candidates(capture.video_hash):
            entry = self.library.entries[entry_index]
            distance = hamming_distance(capture.video_hash,
                                        entry.video_hash)
            if distance > self.hamming_tolerance:
                continue
            overlap = len(query_audio.intersection(entry.audio_hashes))
            if best is None or (distance, -overlap) < (
                    best.video_distance, -best.audio_overlap):
                best = Match(entry.content_id, entry.position_s,
                             distance, overlap)
        return best


def lookup_mismatches(reference, oracle_library):
    """Every (band, value) slot whose run differs from the oracle's."""
    oracle = OracleMatcher(oracle_library)._band_index
    return [(band_no, value)
            for band_no in range(BANDS) for value in range(BAND_VALUES)
            if reference.band_run(band_no, value)
            != oracle[band_no].get(value, [])]


def match_fields(match):
    if match is None:
        return None
    return (match.content_id, match.position_s, match.video_distance,
            match.audio_overlap)


def verdict_fields(verdict):
    return (verdict.content_id, verdict.votes, verdict.total,
            verdict.confidence, [match_fields(m) for m in verdict.matches])


@pytest.fixture(scope="module")
def library():
    return standard_library("uk", seed=3)


@pytest.fixture(scope="module")
def reference(library):
    ref = ReferenceLibrary()
    ref.ingest_all(library.reference_items)
    return ref


@pytest.fixture(scope="module")
def matcher(reference):
    return FingerprintMatcher(reference)


class TestReferenceLibrary:
    def test_ingest_counts_samples(self, library, monkeypatch):
        monkeypatch.setattr(library_module, "DEFAULT_SAMPLE_INTERVAL_S", 2)
        ref = ReferenceLibrary()
        added = ref.ingest(library.shows[0], max_seconds=20)
        assert added == 10

    def test_ingest_idempotent(self, library):
        ref = ReferenceLibrary()
        ref.ingest(library.shows[0])
        assert ref.ingest(library.shows[0]) == 0

    def test_short_item_fully_sampled(self, library, monkeypatch):
        monkeypatch.setattr(library_module, "DEFAULT_SAMPLE_INTERVAL_S", 2)
        ref = ReferenceLibrary()
        ad = library.ads[0]
        added = ref.ingest(ad)
        assert added == -(-ad.duration_s // 2)  # ceil

    def test_item_lookup(self, reference, library):
        item = library.shows[0]
        assert reference.item(item.content_id) is item
        with pytest.raises(KeyError):
            reference.item("missing")

    def test_failed_ingest_leaves_no_partial_item(self, library,
                                                  monkeypatch):
        from repro.acr import library as reference_module
        chunk = reference_module.INGEST_CHUNK
        monkeypatch.setattr(reference_module, "DEFAULT_SAMPLE_INTERVAL_S", 1)
        ref = ReferenceLibrary()
        ref.ingest(library.ads[0])
        before = len(ref)
        real = reference_module.render_frame_batch
        calls = []

        def fail_second_chunk(item, positions):
            calls.append(len(positions))
            if len(calls) == 2:
                raise RuntimeError("render failed")
            return real(item, positions)

        item = library.shows[0]
        monkeypatch.setattr(reference_module, "render_frame_batch",
                            fail_second_chunk)
        with pytest.raises(RuntimeError):
            ref.ingest(item, max_seconds=3 * chunk)
        with pytest.raises(KeyError):
            ref.item(item.content_id)
        assert len(ref) == before
        assert ref.ingest(item, max_seconds=3 * chunk) == 3 * chunk
        assert ref.item(item.content_id) is item
        assert len(ref) == before + 3 * chunk
        assert ref.columns().position_s[before:].tolist() == \
            list(range(3 * chunk))

    def test_column_dtypes_and_shapes(self, reference):
        columns = reference.columns()
        rows = len(reference)
        assert rows > 0
        assert (columns.item_no.dtype, columns.item_no.shape) == \
            (np.int32, (rows,))
        assert (columns.position_s.dtype, columns.position_s.shape) == \
            (np.int32, (rows,))
        assert (columns.video_hash.dtype, columns.video_hash.shape) == \
            (np.uint64, (rows,))
        assert columns._fields == ("item_no", "position_s", "video_hash")
        assert len(reference.landmarks(rows - 1)) == AUDIO_LANDMARKS
        assert columns.item_no.min() == 0
        assert columns.item_no.max() == reference.content_count - 1

    def test_empty_library_columns(self):
        ref = ReferenceLibrary()
        columns = ref.columns()
        assert [(column.dtype, column.shape) for column in columns] == [
            (np.int32, (0,)), (np.int32, (0,)), (np.uint64, (0,))]
        with pytest.raises(IndexError):
            ref.landmarks(0)
        assert len(ref) == ref.content_count == 0
        assert repr(ref) == "ReferenceLibrary(0 items, 0 samples)"

    def test_zero_depth_item_known_without_rows(self, library):
        """As with the per-entry build, ``max_seconds=0`` registers the
        item but adds no sample."""
        ref = ReferenceLibrary()
        empty, show = library.ads[0], library.shows[0]
        assert ref.ingest(empty, max_seconds=0) == 0
        assert ref.item(empty.content_id) is empty
        assert ref.ingest(empty) == 0
        assert len(ref) == 0
        added = ref.ingest(show)
        assert len(ref) == added > 0
        assert set(ref.columns().item_no.tolist()) == {1}
        assert ref.items == [empty, show]

    def test_ingest_adds_no_object_per_sample(self, monkeypatch):
        """A 300-position item adds a handful of GC-tracked objects and
        leaves the TV-side memo untouched.  The per-entry build added a
        ``ReferenceEntry`` and a landmark list per sample."""
        monkeypatch.setattr(library_module, "DEFAULT_SAMPLE_INTERVAL_S", 1)
        # The first ingest in a process fills the dHash resample plans.
        warm = ReferenceLibrary()
        warm.ingest(ContentItem("gc:warm", "Warm", ContentKind.SHOW, 300,
                                "news"))
        item = ContentItem("gc:item", "Item", ContentKind.SHOW, 300, "news")
        ref = ReferenceLibrary()
        clear_fingerprint_cache()
        registry = enable()
        try:
            gc.collect()
            before = len(gc.get_objects())
            assert ref.ingest(item) == 300
            gc.collect()
            added = len(gc.get_objects()) - before
            counters = registry.snapshot()["counters"]
        finally:
            disable()
        assert added < 20
        assert len(_FINGERPRINT_CACHE) == 0
        assert counters.get("acr.memo.miss", 0) == 0
        assert counters.get("acr.memo.hit", 0) == 0


#: Rows per item in :class:`TestLandmarkFills`: shorter than a fill
#: window, one window exactly, one row over, and a ragged third window.
FILL_ITEM_ROWS = (1, 5, INGEST_CHUNK - 1, INGEST_CHUNK, INGEST_CHUNK + 1,
                  2 * INGEST_CHUNK + 3)


def _fill_library():
    """A library of one item per ``FILL_ITEM_ROWS`` entry, sampled on
    the default 4 s grid."""
    ref = ReferenceLibrary()
    for number, rows in enumerate(FILL_ITEM_ROWS):
        ref.ingest(ContentItem(f"fill:{number}", "Fill", ContentKind.SHOW,
                               rows * DEFAULT_SAMPLE_INTERVAL_S, "news"))
    return ref


def _one_position_landmarks(ref, row):
    """Row ``row``'s landmarks from a one-position kernel call."""
    columns = ref.columns()
    item = ref.items[int(columns.item_no[row])]
    return audio_fingerprint_batch(render_audio_batch(
        item, [int(columns.position_s[row])]))[0].tolist()


def _window_rows():
    """Every item's first and last row and the rows either side of each
    window edge, in row order."""
    rows, first = set(), 0
    for count in FILL_ITEM_ROWS:
        rows.update((first, first + count - 1))
        for edge in range(first + INGEST_CHUNK, first + count,
                          INGEST_CHUNK):
            rows.update((edge - 1, edge))
        first += count
    return sorted(rows)


class TestLandmarkFills:
    """Ingest hashes frames only; ``ReferenceLibrary.landmarks`` fills a
    row's window of audio landmarks on its first read."""

    def test_build_reaches_no_audio_kernel(self, library, monkeypatch):
        """Ingest and the band index run with every audio kernel
        patched to raise, wherever a module binds one."""
        def refuse(*args, **kwargs):
            raise AssertionError("the build reached an audio kernel")

        for module in (library_module, fingerprint_module, frames_module):
            for name in ("render_audio_batch", "audio_fingerprint_batch",
                         "render_batch", "fingerprint_positions"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        ref = ReferenceLibrary()
        ref.ingest_all(library.shows[:3])
        ref.ingest(library.live_feeds[0], max_seconds=300)
        order, __ = ref.band_index()
        assert order.shape == (BANDS, len(ref))
        with pytest.raises(AssertionError, match="audio kernel"):
            ref.landmarks(0)

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(_window_rows()),
           st.lists(st.integers(0, sum(FILL_ITEM_ROWS) - 1), max_size=8))
    def test_any_read_order_matches_one_position_kernels(self, edges,
                                                         extra):
        """Window edges, last rows, items shorter than a window and a
        few rows anywhere, read in any order: every row equals its
        one-position kernel call, and each window is filled once."""
        ref = _fill_library()
        order = edges + extra
        registry = enable()
        try:
            read = [ref.landmarks(row) for row in order]
            fills = registry.snapshot()["counters"][
                "acr.library.landmark_fills"]
        finally:
            disable()
        assert read == [_one_position_landmarks(ref, row) for row in order]
        columns = ref.columns()
        windows = {(int(columns.item_no[row]),
                    int(columns.position_s[row]) // DEFAULT_SAMPLE_INTERVAL_S
                    // INGEST_CHUNK) for row in order}
        assert fills == len(windows)

    def test_failed_fill_is_retried(self, monkeypatch):
        ref = _fill_library()
        row = len(ref) - 1
        real = library_module.render_audio_batch
        calls = []

        def fail_first(item, positions):
            calls.append(list(positions))
            if len(calls) == 1:
                raise RuntimeError("render failed")
            return real(item, positions)

        monkeypatch.setattr(library_module, "render_audio_batch",
                            fail_first)
        registry = enable()
        try:
            with pytest.raises(RuntimeError):
                ref.landmarks(row)
            assert ref.landmarks(row) == _one_position_landmarks(ref, row)
            assert ref.landmarks(row - 1) == \
                _one_position_landmarks(ref, row - 1)
            snapshot = registry.snapshot()
        finally:
            disable()
        # The failed window was fingerprinted again, then read once.
        assert len(calls) == 2 and calls[0] == calls[1]
        assert len(calls[0]) == 3
        assert snapshot["counters"]["acr.library.landmark_fills"] == 1

    def test_one_fill_per_window(self):
        ref = _fill_library()
        start = sum(FILL_ITEM_ROWS[:-1])
        registry = enable()
        try:
            ref.landmarks(start + 1)
            ref.landmarks(start + INGEST_CHUNK - 1)
            once = registry.snapshot()
            ref.landmarks(start + INGEST_CHUNK)
            twice = registry.snapshot()
        finally:
            disable()
        assert once["counters"]["acr.library.landmark_fills"] == 1
        assert once["histograms"]["acr.landmarks.wall_ms"]["count"] == 1
        assert twice["counters"]["acr.library.landmark_fills"] == 2
        assert twice["histograms"]["acr.landmarks.wall_ms"]["count"] == 2

    def test_ingest_keeps_filled_rows(self, library):
        """A later ingest adds unfilled rows and keeps the fills."""
        ref = _fill_library()
        first = ref.landmarks(0)
        registry = enable()
        try:
            ref.ingest(library.ads[0])
            assert ref.landmarks(0) == first
            added = ref.landmarks(len(ref) - 1)
            fills = registry.snapshot()["counters"][
                "acr.library.landmark_fills"]
        finally:
            disable()
        assert fills == 1
        assert added == _one_position_landmarks(ref, len(ref) - 1)


class TestBands:
    def test_band_count_and_width(self):
        bands = bands_of(0x1111222233334444)
        assert bands == (0x1111, 0x2222, 0x3333, 0x4444)

    def test_nearby_hash_shares_band(self):
        """Pigeonhole: Hamming distance 3 over 4 bands shares one band."""
        original = 0xAAAABBBBCCCCDDDD
        corrupted = original ^ 0b111  # 3 bit flips in the last band
        shared = set(bands_of(original)) & set(bands_of(corrupted))
        assert shared


class TestMatcher:
    def test_exact_position_match(self, matcher, library):
        item = library.shows[0]
        capture = capture_state(PlayState(item, 50.0))
        match = matcher.match_capture(capture)
        assert match is not None
        assert match.content_id == item.content_id
        # Within the same 8 s scene of the true position.
        assert abs(match.position_s - 50) <= 8

    def test_drifted_frame_still_matches(self, matcher, library):
        """Off-grid positions (between reference samples) match too."""
        item = library.shows[1]
        capture = capture_state(PlayState(item, 51.0))  # refs at 50, 52
        match = matcher.match_capture(capture)
        assert match is not None
        assert match.content_id == item.content_id

    def test_unknown_content_no_match(self, matcher, library):
        capture = capture_state(PlayState(library.game(), 100.0))
        assert matcher.match_capture(capture) is None

    def test_batch_vote(self, matcher, library):
        channel = build_channel("C1", library)
        captures = [capture_state(channel.playing_at(seconds(100 + i)))
                    for i in range(8)]
        verdict = matcher.match_batch(captures)
        assert verdict.recognised
        assert verdict.content_id == channel.playing_at(
            seconds(104)).item.content_id
        assert verdict.confidence > 0.5

    def test_empty_batch(self, matcher):
        verdict = matcher.match_batch([])
        assert not verdict.recognised
        assert verdict.total == 0

    def test_batch_of_unknown_content(self, matcher, library):
        captures = [capture_state(PlayState(library.desktop(), float(i)))
                    for i in range(8)]
        verdict = matcher.match_batch(captures)
        assert not verdict.recognised

    def test_mixed_batch_majority_wins(self, matcher, library):
        item = library.shows[2]
        known = [capture_state(PlayState(item, 20.0 + i)) for i in range(6)]
        unknown = [capture_state(PlayState(library.game(), float(i)))
                   for i in range(2)]
        verdict = matcher.match_batch(known + unknown)
        assert verdict.recognised
        assert verdict.content_id == item.content_id

    def test_tolerance_zero_still_matches_on_grid(self, library,
                                                  monkeypatch):
        # The memo does not key on the tolerance: a fresh library.
        monkeypatch.setattr(matcher_module, "DEFAULT_HAMMING_TOLERANCE", 0)
        item = library.shows[0]
        ref = ReferenceLibrary()
        ref.ingest(item)
        capture = capture_state(PlayState(item, 50.0))  # on the 2 s grid
        match = FingerprintMatcher(ref).match_capture(capture)
        assert match is not None and match.video_distance == 0

    def test_matcher_sees_later_ingest(self, library):
        ref = ReferenceLibrary()
        ref.ingest(library.shows[0])
        matcher = FingerprintMatcher(ref)
        assert matcher.match_capture(
            capture_state(PlayState(library.shows[0], 10.0))) is not None
        capture = capture_state(PlayState(library.shows[5], 10.0))
        assert matcher.match_capture(capture) is None
        ref.ingest(library.shows[5])
        # The ingest dropped the index and the memoized miss.
        match = matcher.match_capture(capture)
        assert match is not None
        assert match.content_id == library.shows[5].content_id

    def test_recognition_rate_over_catalog(self, matcher, library):
        """>90% of on-grid captures across many items are recognised."""
        hits = 0
        trials = 0
        for item in library.shows[:10]:
            for position in (10.0, 60.0, 120.0):
                capture = capture_state(PlayState(item, position))
                match = matcher.match_capture(capture)
                trials += 1
                if match and match.content_id == item.content_id:
                    hits += 1
        assert hits / trials > 0.9


class TestMatchMemo:
    """``match_capture`` answers from the library's memo (an ingest
    drops it: ``TestMatcher.test_matcher_sees_later_ingest``)."""

    @pytest.fixture
    def ref(self, library):
        ref = ReferenceLibrary()
        ref.ingest(library.shows[0], max_seconds=120)
        return ref

    @pytest.fixture
    def searches(self, ref, monkeypatch):
        """The video hash of every candidate search from here on."""
        hashes = []
        real = ref.candidates

        def counting(video_hash):
            hashes.append(video_hash)
            return real(video_hash)

        monkeypatch.setattr(ref, "candidates", counting)
        return hashes

    def test_repeat_match_searches_once(self, ref, searches, library):
        capture = capture_state(PlayState(library.shows[0], 50.0))
        first = FingerprintMatcher(ref).match_capture(capture)
        # Another matcher over the library (another backend) hits too.
        second = FingerprintMatcher(ref).match_capture(capture)
        assert searches == [capture.video_hash]
        assert first is not None
        assert match_fields(second) == match_fields(first)

    def test_tolerance_bounds_the_match(self, ref, searches, library,
                                        monkeypatch):
        # 1 bit from its nearest sample: only the default tolerance
        # matches it.  The memo does not key on the tolerance, so the
        # strict match runs over a fresh library.
        capture = capture_state(PlayState(library.shows[0], 57.0))
        loose = FingerprintMatcher(ref).match_capture(capture)
        monkeypatch.setattr(matcher_module, "DEFAULT_HAMMING_TOLERANCE", 0)
        fresh = ReferenceLibrary()
        fresh.ingest(library.shows[0], max_seconds=120)
        strict = FingerprintMatcher(fresh).match_capture(capture)
        assert searches == [capture.video_hash]
        assert loose is not None and strict is None

    def test_match_is_immutable(self, ref, library):
        match = FingerprintMatcher(ref).match_capture(
            capture_state(PlayState(library.shows[0], 50.0)))
        with pytest.raises(AttributeError):
            match.content_id = "other"
        with pytest.raises(AttributeError):
            match.audio_overlap += 1


@pytest.fixture
def index_builds(monkeypatch):
    """The entry count of every band-index build from here on."""
    builds = []
    real = library_module.index_bands

    def counting(video_hashes):
        builds.append(len(video_hashes))
        return real(video_hashes)

    monkeypatch.setattr(library_module, "index_bands", counting)
    return builds


@pytest.fixture(scope="module")
def small_reference(library):
    """Small enough to check every slot quickly, with enough repeated
    band values that an unstable sort reorders them."""
    ref = ReferenceLibrary()
    ref.ingest_all(library.shows[:4], max_seconds=120)
    ref.ingest_all(library.ads[:4], max_seconds=120)
    return ref


@pytest.fixture(scope="module")
def small_oracle(library):
    """The per-entry build of ``small_reference``."""
    oracle = OracleLibrary(max_seconds=120)
    oracle.ingest_all(library.shows[:4])
    oracle.ingest_all(library.ads[:4])
    return oracle


class TestBandIndex:
    def test_every_lookup_matches_oracle(self, small_reference,
                                         small_oracle):
        assert lookup_mismatches(small_reference, small_oracle) == []

    def test_columns_match_oracle(self, small_reference, small_oracle):
        assert column_rows(small_reference) == entry_rows(small_oracle)

    def test_fixture_needs_the_stable_sort(self, small_oracle):
        """The lookup test above catches an unstable sort: numpy's
        default sort reorders this library's repeated band values."""
        hashes = np.array([entry.video_hash
                           for entry in small_oracle.entries],
                          dtype=np.uint64)
        for band_no in range(BANDS):
            shift = np.uint64(BAND_BITS * (BANDS - 1 - band_no))
            values = ((hashes >> shift)
                      & np.uint64(BAND_VALUES - 1)).astype(np.uint16)
            assert (np.argsort(values)
                    != np.argsort(values, kind="stable")).any()

    def test_absent_value_gives_empty_run(self, small_reference,
                                          small_oracle):
        present = {bands_of(entry.video_hash)[0]
                   for entry in small_oracle.entries}
        absent = next(value for value in range(BAND_VALUES)
                      if value not in present)
        assert small_reference.band_run(0, absent) == []

    def test_empty_library(self, library):
        empty = ReferenceLibrary()
        assert empty.candidates(0xAAAABBBBCCCCDDDD) == []
        assert all(empty.band_run(band_no, value) == []
                   for band_no in range(BANDS) for value in (0, 1, 0xFFFF))
        matcher = FingerprintMatcher(empty)
        capture = capture_state(PlayState(library.shows[0], 8.0))
        assert matcher.match_capture(capture) is None
        assert not matcher.match_batch([capture]).recognised

    def test_candidates_deduplicated_in_band_order(self, small_reference,
                                                   small_oracle):
        oracle = OracleMatcher(small_oracle)
        for entry in small_oracle.entries[::7]:
            for flip in (0, 1, 1 << 20, 1 << 40, 1 << 63):
                video_hash = entry.video_hash ^ flip
                assert small_reference.candidates(video_hash) \
                    == oracle._candidates(video_hash)

    @pytest.mark.slow
    @pytest.mark.parametrize("country", ["uk", "us"])
    def test_shipped_libraries_match_oracle(self, country):
        reference = assets.reference_library(country, 0)
        try:
            oracle = shipped_oracle(country)
        finally:
            clear_fingerprint_cache()
        assert column_rows(reference) == entry_rows(oracle)
        assert lookup_mismatches(reference, oracle) == []


class TestIndexBuilds:
    def test_backends_share_the_warm_index(self, uk_reference, uk_library,
                                           index_builds):
        item = uk_library.shows[0]
        capture = capture_state(PlayState(item, 50.0))
        for vendor in ("samsung", "lg") * 3:
            backend = assets.fresh_backend(vendor, "uk")
            assert backend.library is uk_reference
            assert backend.matcher.match_capture(capture).content_id \
                == item.content_id
        assert index_builds == []

    def test_ingest_then_match_builds_once(self, library, index_builds):
        ref = ReferenceLibrary()
        ref.ingest(library.shows[0])
        matcher = FingerprintMatcher(ref)
        assert index_builds == []
        for position in (10.0, 50.0, 90.0):
            matcher.match_capture(
                capture_state(PlayState(library.shows[0], position)))
        assert index_builds == [len(ref)]

    def test_repeat_ingest_keeps_the_index(self, library, index_builds):
        ref = ReferenceLibrary()
        ref.ingest(library.shows[0])
        ref.candidates(0)
        assert ref.ingest(library.shows[0]) == 0
        ref.candidates(0)
        assert index_builds == [len(ref)]


#: Items the property draws from: shows, ads and a live feed.
POOL = 8

#: One ingest: (item, per-item depth cap or the library's own).
INGEST = st.tuples(st.integers(0, POOL - 1),
                   st.one_of(st.none(), st.integers(1, 160)))

#: One probe: (kind, item, position).  ``on`` lands on the 4 s
#: reference grid, ``off`` between its samples, and ``unknown`` shows
#: content the operator never fingerprinted.
PROBE = st.tuples(st.sampled_from(["on", "off", "unknown"]),
                  st.integers(0, POOL - 1), st.integers(0, 160))


class TestMatcherAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(before=st.lists(INGEST, max_size=3),
           after=st.lists(INGEST, max_size=3),
           probes=st.lists(PROBE, min_size=1, max_size=6),
           tolerance=st.sampled_from([0, 3, 6]))
    def test_matches_oracle_field_for_field(self, library, before, after,
                                            probes, tolerance):
        """Some items are ingested after both matchers exist and have
        matched, so the library's index is dropped and rebuilt."""
        items = library.shows[:4] + library.ads[:3] + library.live_feeds[:1]
        ref = ReferenceLibrary()
        oracle_ref = OracleLibrary(max_seconds=160)

        def ingest(steps):
            for index, cap in steps:
                ref.ingest(items[index], cap)
                oracle_ref.ingest(items[index], cap)

        def capture(kind, index, position):
            if kind == "unknown":
                return capture_state(PlayState(
                    library.game() if index % 2 else library.desktop(),
                    float(position)))
            offset = 0.0 if kind == "on" else 1.5
            return capture_state(PlayState(
                items[index], float(position - position % 4) + offset))

        def check():
            for item in captures:
                assert match_fields(ours.match_capture(item)) \
                    == match_fields(oracle.match_capture(item))
            assert verdict_fields(ours.match_batch(captures)) \
                == verdict_fields(oracle.match_batch(captures))

        captures = [capture(*probe) for probe in probes]
        with mock.patch.object(library_module, "MAX_REFERENCE_SECONDS",
                               160), \
                mock.patch.object(matcher_module,
                                  "DEFAULT_HAMMING_TOLERANCE", tolerance):
            ingest(before)
            ours = FingerprintMatcher(ref)
            oracle = OracleMatcher(oracle_ref, tolerance)
            check()
            ingest(after)
            check()
