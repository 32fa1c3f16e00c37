"""Tests for fingerprinting: dHash, audio landmarks, batch codec.

Production renders and fingerprints samples in numpy batches.  The
per-sample path it replaced lives on here as the oracle (``_oracle_*``):
every batch result must equal it bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acr import (Capture, FingerprintBatch, ReferenceLibrary,
                       capture_state, hamming_distance, video_fingerprint)
from repro.acr import fingerprint as fingerprint_module
from repro.acr.fingerprint import (_FINGERPRINT_CACHE, AUDIO_LANDMARKS,
                                   audio_fingerprint_batch, capture_batch,
                                   clear_fingerprint_cache,
                                   fingerprint_positions,
                                   video_fingerprint_batch)
from repro.acr.library import INGEST_CHUNK
from repro.media import (AUDIO_RATE_HZ, AUDIO_SAMPLES, FRAME_HEIGHT,
                         FRAME_WIDTH, ContentItem, ContentKind, PlayState,
                         render_frame, standard_library)
from repro.media.frames import (_seed_words, _streams, render_audio_batch,
                                render_batch, render_frame_batch)
from repro.obs import disable, enable
from reference_oracle import column_rows


def _oracle_rng(seed, scene):
    return np.random.default_rng(
        np.uint64(seed) ^ np.uint64(scene * 2654435761 + 7))


def _oracle_render_frame(state):
    seed = state.item.visual_seed
    second = int(state.position_s)
    scene = int(state.position_s / 8.0)
    base = _oracle_rng(seed, scene).random((FRAME_HEIGHT, FRAME_WIDTH),
                                           dtype=np.float32)
    drift = _oracle_rng(seed ^ 0x5DEECE66D, scene * 100000 + second).random(
        (FRAME_HEIGHT, FRAME_WIDTH), dtype=np.float32)
    return (0.96 * base + 0.04 * drift).astype(np.float32)


def _oracle_render_audio(state):
    seed = state.item.visual_seed ^ 0xA5A5A5A5
    second = int(state.position_s)
    scene = int(state.position_s / 8.0)
    rng = _oracle_rng(seed, scene)
    tones = rng.integers(60, AUDIO_RATE_HZ // 4, size=4)
    amplitudes = rng.random(4) * 0.5 + 0.2
    t = np.arange(AUDIO_SAMPLES, dtype=np.float32) / AUDIO_RATE_HZ
    phase = (second % 16) * 0.37
    signal = np.zeros(AUDIO_SAMPLES, dtype=np.float32)
    for frequency, amplitude in zip(tones, amplitudes):
        signal += amplitude * np.sin(
            2.0 * np.pi * float(frequency) * t + phase).astype(np.float32)
    peak = float(np.max(np.abs(signal)))
    if peak > 0:
        signal = signal / peak
    return signal


def _oracle_video_fingerprint(frame):
    """dHash with one ``mean`` per block and one shift per bit."""
    rows, cols = 8, 9
    h, w = frame.shape
    row_edges = np.linspace(0, h, rows + 1).astype(int)
    col_edges = np.linspace(0, w, cols + 1).astype(int)
    grid = np.empty((rows, cols), dtype=np.float64)
    for r in range(rows):
        for c in range(cols):
            block = frame[row_edges[r]:max(row_edges[r + 1],
                                           row_edges[r] + 1),
                          col_edges[c]:max(col_edges[c + 1],
                                           col_edges[c] + 1)]
            grid[r, c] = float(block.mean())
    bits = 0
    for r in range(rows):
        for c in range(cols - 1):
            bits = (bits << 1) | int(grid[r, c] > grid[r, c + 1])
    return bits


def _oracle_audio_fingerprint(signal):
    spectrum = np.abs(np.fft.rfft(signal))
    peak_bins = np.argsort(spectrum)[-8:][::-1]
    hashes = []
    for i in range(5):
        for j in range(1, 4):
            anchor = int(peak_bins[i]) & 0xFFF
            target = int(peak_bins[i + j]) & 0xFFF
            hashes.append((anchor << 20) | (target << 8) | j)
    return hashes


def _oracle_capture(item, position):
    state = PlayState(item, position)
    return (_oracle_video_fingerprint(_oracle_render_frame(state)),
            tuple(_oracle_audio_fingerprint(_oracle_render_audio(state))))


def _item(content_id):
    return ContentItem(content_id, "Title", ContentKind.SHOW, 5400, "news")


def _memo_key(item, position):
    return (item.visual_seed, int(position), int(position / 8.0))


@pytest.fixture(scope="module")
def library():
    return standard_library("uk", seed=3)


class TestVideoFingerprint:
    def test_deterministic(self, library):
        frame = render_frame(PlayState(library.shows[0], 10.0))
        assert video_fingerprint(frame) == video_fingerprint(frame)

    def test_64_bits(self, library):
        frame = render_frame(PlayState(library.shows[0], 10.0))
        assert 0 <= video_fingerprint(frame) < (1 << 64)

    def test_same_scene_low_distance(self, library):
        item = library.shows[0]
        h1 = video_fingerprint(render_frame(PlayState(item, 32.0)))
        h2 = video_fingerprint(render_frame(PlayState(item, 33.0)))
        assert hamming_distance(h1, h2) <= 6

    def test_different_content_high_distance(self, library):
        h1 = video_fingerprint(render_frame(PlayState(library.shows[0],
                                                      32.0)))
        h2 = video_fingerprint(render_frame(PlayState(library.shows[1],
                                                      32.0)))
        assert hamming_distance(h1, h2) > 15

    def test_brightness_invariance(self, library):
        """dHash depends on gradients, not absolute brightness."""
        frame = render_frame(PlayState(library.shows[0], 10.0))
        brighter = np.clip(frame + 0.05, 0.0, 1.0)
        distance = hamming_distance(video_fingerprint(frame),
                                    video_fingerprint(brighter))
        assert distance <= 8

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            video_fingerprint(np.zeros(10, dtype=np.float32))

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_hamming_properties(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, a) == 0
        assert 0 <= hamming_distance(a, b) <= 64


class TestVectorizedResampleEquivalence:
    """The batched `_resample`/packbits dHash must be bit-identical to
    the per-block reference loop — fingerprints feed matcher verdicts,
    which feed wire traffic, so any drift would change captures."""

    def test_matches_reference_on_rendered_frames(self, library):
        for item in (library.shows[0], library.ads[0]):
            for position in (0.0, 9.5, 63.0, 127.9):
                frame = render_frame(PlayState(item, position))
                assert video_fingerprint(frame) == \
                    _oracle_video_fingerprint(frame)

    def test_matches_reference_on_random_frames(self):
        rng = np.random.default_rng(7)
        frames = rng.random((200, 18, 32), dtype=np.float32)
        assert video_fingerprint_batch(frames).tolist() == \
            [_oracle_video_fingerprint(frame) for frame in frames]
        for frame in frames[:20]:
            assert video_fingerprint(frame) == \
                _oracle_video_fingerprint(frame)


def _landmarks(item, position):
    """The audio landmarks of ``item`` at ``position``."""
    return audio_fingerprint_batch(
        render_audio_batch(item, [position]))[0].tolist()


class TestAudioFingerprint:
    def test_deterministic(self, library):
        audio = render_audio_batch(library.shows[0], [10.0])
        assert np.array_equal(audio_fingerprint_batch(audio),
                              audio_fingerprint_batch(audio))

    def test_landmark_count(self, library):
        landmarks = _landmarks(library.shows[0], 10.0)
        assert 1 <= len(landmarks) <= 15

    def test_same_scene_overlap(self, library):
        item = library.shows[0]
        a = set(_landmarks(item, 32.0))
        b = set(_landmarks(item, 33.0))
        assert len(a & b) >= 3

    def test_different_content_low_overlap(self, library):
        a = set(_landmarks(library.shows[0], 32.0))
        b = set(_landmarks(library.shows[1], 32.0))
        assert len(a & b) <= 2

    def test_rejects_one_unstacked_excerpt(self):
        with pytest.raises(ValueError):
            audio_fingerprint_batch(np.zeros(4, dtype=np.float32))


class TestBatchCodec:
    def _batch(self, library, n=5):
        captures = [capture_state(PlayState(library.shows[0], 10.0 + i),
                                  offset_ns=i * 10 ** 9)
                    for i in range(n)]
        return FingerprintBatch("tv-psid-0001", captures)

    def test_roundtrip(self, library):
        batch = self._batch(library)
        decoded = FingerprintBatch.decode(batch.encode())
        assert decoded.device_id == "tv-psid-0001"
        assert len(decoded) == len(batch)
        for a, b in zip(batch.captures, decoded.captures):
            assert a.video_hash == b.video_hash
            assert a.audio_hashes == b.audio_hashes
            # offsets survive at millisecond precision
            assert abs(a.offset_ns - b.offset_ns) < 10 ** 6

    def test_encoded_size_grows_with_captures(self, library):
        small = self._batch(library, n=2)
        large = self._batch(library, n=10)
        assert large.encoded_size > small.encoded_size

    def test_empty_batch(self):
        batch = FingerprintBatch("tv", [])
        decoded = FingerprintBatch.decode(batch.encode())
        assert len(decoded) == 0

    def test_bad_magic_rejected(self, library):
        raw = bytearray(self._batch(library).encode())
        raw[0] = ord("X")
        with pytest.raises(ValueError):
            FingerprintBatch.decode(bytes(raw))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            FingerprintBatch.decode(b"ACR")

    def test_every_truncation_rejected(self, library):
        """A cut in the device id, a capture header or its landmarks
        is a ``ValueError``, never a ``struct.error``."""
        raw = self._batch(library, n=2).encode()
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                FingerprintBatch.decode(raw[:cut])

    @settings(max_examples=60, deadline=None)
    @given(st.text(st.characters(max_codepoint=127), max_size=40),
           st.lists(st.tuples(st.integers(0, 2 ** 32 - 1),
                              st.integers(0, 2 ** 64 - 1),
                              st.lists(st.integers(0, 2 ** 32 - 1),
                                       max_size=20)),
                    max_size=6))
    def test_roundtrip_property(self, device_id, rows):
        captures = [Capture(ms * 1_000_000, video_hash, landmarks)
                    for ms, video_hash, landmarks in rows]
        raw = FingerprintBatch(device_id, captures).encode()
        decoded = FingerprintBatch.decode(raw)
        assert decoded.device_id == device_id
        assert [(c.offset_ns, c.video_hash, c.audio_hashes)
                for c in decoded.captures] == \
            [(c.offset_ns, c.video_hash, c.audio_hashes) for c in captures]
        assert decoded.encode() == raw
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                FingerprintBatch.decode(raw[:cut])

    def test_capture_repr(self):
        capture = Capture(10 ** 9, 0xDEADBEEF, [1, 2])
        assert "audio landmarks" in repr(capture)


#: Entropies whose one- or two-word split is at an edge.
EDGE_ENTROPIES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
entropies = st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                     min_size=1, max_size=12)


class TestSeedingPass:
    """The render streams' one-pass seeding against ``SeedSequence`` and
    ``default_rng`` stream by stream, the oracle it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(entropies)
    @example(EDGE_ENTROPIES)
    def test_words_match_seed_sequence(self, keys):
        words = _seed_words(keys)
        assert (words.dtype, words.shape) == (np.uint64, (len(keys), 4))
        for key, row in zip(keys, words):
            assert row.tolist() == np.random.SeedSequence(key) \
                .generate_state(4, np.uint64).tolist()

    @settings(max_examples=100, deadline=None)
    @given(entropies)
    @example(EDGE_ENTROPIES)
    def test_streams_draw_like_default_rng(self, keys):
        for key, stream in zip(keys, _streams(keys), strict=True):
            oracle = np.random.default_rng(np.uint64(key))
            assert np.array_equal(
                stream.random((FRAME_HEIGHT, FRAME_WIDTH), dtype=np.float32),
                oracle.random((FRAME_HEIGHT, FRAME_WIDTH), dtype=np.float32))
            assert np.array_equal(stream.integers(60, 1000, size=4),
                                  oracle.integers(60, 1000, size=4))
            assert np.array_equal(stream.random(4), oracle.random(4))

    def test_empty_pass(self):
        assert _seed_words([]).shape == (0, 4)
        assert _streams([]) == []

    @pytest.mark.parametrize("key", [2 ** 64, 2 ** 64 + 5, -1])
    def test_key_outside_uint64_overflows(self, key):
        with pytest.raises(OverflowError):
            np.uint64(key)
        with pytest.raises(OverflowError):
            _streams([7, key])

    def test_far_position_overflows_like_the_oracle(self):
        """A drift stream's key passes 2**64 from about 556,000 s."""
        state = PlayState(_item("far"), 600_000.0)
        with pytest.raises(OverflowError):
            _oracle_render_frame(state)
        with pytest.raises(OverflowError):
            render_frame_batch(state.item, [3.0, state.position_s])


content_ids = st.text("abcdefghijklmnopqrstuvwxyz0123456789:-", min_size=1,
                      max_size=24)
#: Whole and fractional seconds, and positions on and either side of a
#: scene cut (every 8 s), where the memo key's scene component flips.
positions = st.one_of(
    st.integers(min_value=0, max_value=5400),
    st.floats(min_value=0.0, max_value=5400.0),
    st.builds(lambda scene, delta: max(0.0, 8.0 * scene + delta),
              st.integers(min_value=0, max_value=675),
              st.sampled_from([-1.0, -1e-9, 0.0, 1e-9, 0.5])))


class TestBatchEquivalence:
    """The batch renderers, kernels and memo-aware entry point against
    the per-sample oracle.  Frames and audio are compared as float32
    bits, not just as hashes: a near-tie FFT bin turns a one-ulp
    difference into a different landmark only rarely."""

    @settings(max_examples=30, deadline=None)
    @given(content_ids, st.lists(positions, min_size=1, max_size=24))
    def test_renderers_and_kernels_match_oracle(self, content_id,
                                                points):
        item = _item(content_id)
        states = [PlayState(item, position) for position in points]
        frames = render_frame_batch(item, points)
        audio = render_audio_batch(item, points)
        assert frames.dtype == audio.dtype == np.float32
        expected_frames = np.stack([_oracle_render_frame(s) for s in states])
        expected_audio = np.stack([_oracle_render_audio(s) for s in states])
        assert np.array_equal(frames, expected_frames)
        assert np.array_equal(audio, expected_audio)
        video = video_fingerprint_batch(frames)
        landmarks = audio_fingerprint_batch(audio)
        assert (video.dtype, video.shape) == (np.uint64, (len(points),))
        assert (landmarks.dtype, landmarks.shape) == \
            (np.uint32, (len(points), AUDIO_LANDMARKS))
        assert video.tolist() == \
            [_oracle_video_fingerprint(frame) for frame in frames]
        assert landmarks.tolist() == \
            [list(_oracle_audio_fingerprint(clip)) for clip in audio]

    @settings(max_examples=30, deadline=None)
    @given(content_ids, st.lists(positions, min_size=1, max_size=24))
    def test_joint_kernel_matches_single_family_kernels(self, content_id,
                                                        points):
        """The TV kernel seeds frames and audio in one pass: the same
        bits as the two single-family renders, and still one
        ``acr.memo.miss_batches`` per batch with a miss."""
        item = _item(content_id)
        frames, audio = render_batch(item, points)
        assert frames.tobytes() == render_frame_batch(item, points).tobytes()
        assert audio.tobytes() == render_audio_batch(item, points).tobytes()
        video, landmarks = fingerprint_positions(item, points)
        assert video.tolist() == video_fingerprint_batch(frames).tolist()
        assert landmarks.tolist() == audio_fingerprint_batch(audio).tolist()
        clear_fingerprint_cache()
        registry = enable()
        try:
            captures = capture_batch(item, points)
            counters = registry.snapshot()["counters"]
        finally:
            disable()
            clear_fingerprint_cache()
        assert counters["acr.memo.miss_batches"] == 1
        assert [(c.video_hash, c.audio_hashes) for c in captures] == \
            list(zip(video.tolist(), landmarks.tolist()))

    @settings(max_examples=30, deadline=None)
    @given(content_ids, st.lists(positions, min_size=1, max_size=16),
           st.integers(min_value=0, max_value=8), st.data())
    def test_capture_batch_matches_oracle_and_memo(self, content_id, points,
                                                   repeats, data):
        """Chunk cuts anywhere, repeated keys within and across chunks:
        same captures, memo and counters as one call per position."""
        item = _item(content_id)
        points = points + points[:repeats]
        cut = data.draw(st.integers(min_value=0, max_value=len(points)))
        offsets = [5 * index for index in range(len(points))]
        clear_fingerprint_cache()
        registry = enable()
        try:
            captures = (capture_batch(item, points[:cut], offsets[:cut])
                        + capture_batch(item, points[cut:], offsets[cut:]))
            counters = registry.snapshot()["counters"]
        finally:
            disable()
        expected = {_memo_key(item, p): _oracle_capture(item, p)
                    for p in points}
        # A chunk makes one kernel call when any of its keys is new.
        first_seen = {}
        for index, point in enumerate(points):
            first_seen.setdefault(_memo_key(item, point), index)
        kernel_calls = len({index < cut for index in first_seen.values()})
        try:
            assert [(c.video_hash, tuple(c.audio_hashes)) for c in captures] \
                == [expected[_memo_key(item, p)] for p in points]
            assert [c.offset_ns for c in captures] == offsets
            assert list(_FINGERPRINT_CACHE.items()) == list(expected.items())
            assert counters.get("acr.memo.miss", 0) == len(expected)
            assert counters.get("acr.memo.hit", 0) == \
                len(points) - len(expected)
            assert counters.get("acr.memo.miss_batches", 0) == kernel_calls
            assert len({id(c.audio_hashes) for c in captures}) == \
                len(captures)
        finally:
            clear_fingerprint_cache()

    @pytest.mark.parametrize("content_id, position", [
        ("uk-catalog:show:0005", 2476), ("uk-catalog:show:0009", 56),
        ("uk-catalog:show:0024", 660), ("uk-catalog:show:0040", 180),
        ("us-catalog:show:0010", 456), ("us-catalog:episode:0116", 152)])
    def test_near_tie_landmarks(self, content_id, position):
        """Reference samples whose top FFT bins nearly tie: computing
        the tone argument in float64 instead of float32 reorders them
        and changes these landmarks (and no others in either library)."""
        item = _item(content_id)
        clear_fingerprint_cache()
        try:
            capture, = capture_batch(item, [position])
        finally:
            clear_fingerprint_cache()
        assert (capture.video_hash, tuple(capture.audio_hashes)) == \
            _oracle_capture(item, position)

    def test_ingest_across_chunk_cuts_matches_oracle(self):
        item = _item("chunked:0001")
        count = 3 * INGEST_CHUNK + 5
        reference = ReferenceLibrary(sample_interval_s=1, max_seconds=count)
        assert reference.ingest(item) == count
        columns = reference.columns()
        assert list(zip(columns.position_s.tolist(),
                        columns.video_hash.tolist(),
                        map(tuple, map(reference.landmarks,
                                       range(count))))) == \
            [(p, *_oracle_capture(item, p)) for p in range(count)]

    def test_batch_kernels_reject_wrong_rank(self):
        with pytest.raises(ValueError):
            video_fingerprint_batch(np.zeros((18, 32), dtype=np.float32))
        with pytest.raises(ValueError):
            audio_fingerprint_batch(np.zeros(512, dtype=np.float32))

    def test_offsets_must_match_positions(self):
        with pytest.raises(ValueError):
            capture_batch(_item("offsets"), [3.0, 4.0], [0])

    def test_negative_position_rejected(self):
        item = _item("negative")
        for call in (render_frame_batch, render_audio_batch, capture_batch):
            with pytest.raises(ValueError):
                call(item, [3.0, -0.5])


LOOK_AHEAD_ITEMS = [_item(f"ahead:{name}") for name in "AB"]
#: A small range, so calls and their ``ahead`` lists share keys often.
near_positions = st.one_of(st.integers(min_value=0, max_value=30),
                           st.floats(min_value=0.0, max_value=30.0))
look_ahead_calls = st.lists(st.tuples(
    st.sampled_from(LOOK_AHEAD_ITEMS),
    st.lists(near_positions, min_size=1, max_size=6),
    st.lists(near_positions, max_size=12)), min_size=1, max_size=8)


def _exploding():
    """An ``ahead`` that fails the test if anything reads it."""
    raise AssertionError("ahead read by a call that renders nothing")
    yield  # pragma: no cover


class TestLookAhead:
    """``capture_batch(ahead=)`` renders later calls' positions beside
    its misses and parks them in ``_AHEAD``; nothing a caller can see
    besides ``acr.kernel.*`` may change."""

    @staticmethod
    def _run(calls, look_ahead):
        """Captures, memo items and counters of ``calls`` from empty
        stores, with or without their ``ahead`` lists."""
        clear_fingerprint_cache()
        registry = enable()
        try:
            captures = [
                [(c.offset_ns, c.video_hash, tuple(c.audio_hashes))
                 for c in capture_batch(
                     item, points, list(range(len(points))),
                     ahead if look_ahead else ())]
                for item, points, ahead in calls]
            counters = registry.snapshot()["counters"]
            return captures, list(_FINGERPRINT_CACHE.items()), counters
        finally:
            disable()
            clear_fingerprint_cache()

    @settings(max_examples=40, deadline=None)
    @given(look_ahead_calls)
    @example([(LOOK_AHEAD_ITEMS[0], [1.0], [2.0, 3.0, 2.5]),
              (LOOK_AHEAD_ITEMS[1], [2.0], [1.0]),
              (LOOK_AHEAD_ITEMS[0], [3.0, 2.0, 9.0], [9.5, 10.0]),
              (LOOK_AHEAD_ITEMS[0], [10.0, 1.0], [])])
    def test_same_captures_memo_and_counts_as_without(self, calls):
        captures, memo, counters = self._run(calls, True)
        plain_captures, plain_memo, plain = self._run(calls, False)
        assert captures == plain_captures
        assert memo == plain_memo
        memo_counts = {name: value for name, value in counters.items()
                       if name.startswith("acr.memo.")}
        assert memo_counts == {name: value for name, value in plain.items()
                               if name.startswith("acr.memo.")}
        # Without look-ahead every miss batch is one kernel call over
        # exactly its misses; with it there are no more calls, and
        # every miss is rendered exactly once.
        assert plain.get("acr.kernel.calls", 0) \
            == plain.get("acr.memo.miss_batches", 0)
        assert plain.get("acr.kernel.positions", 0) \
            == plain.get("acr.memo.miss", 0)
        assert counters.get("acr.kernel.calls", 0) \
            <= plain.get("acr.kernel.calls", 0)
        assert counters.get("acr.kernel.positions", 0) \
            >= plain.get("acr.kernel.positions", 0)

    def test_ahead_is_read_only_by_a_call_that_renders(self):
        item = LOOK_AHEAD_ITEMS[0]
        clear_fingerprint_cache()
        registry = enable()
        try:
            first = capture_batch(item, [1.0], ahead=[5.0, 1.5, 6.0])
            assert list(fingerprint_module._AHEAD) == \
                [_memo_key(item, 5.0), _memo_key(item, 6.0)]
            capture_batch(item, [1.0], ahead=_exploding())    # a hit
            served, = capture_batch(item, [5.0], ahead=_exploding())
            counters = registry.snapshot()["counters"]
        finally:
            disable()
        try:
            assert (first[0].video_hash, tuple(first[0].audio_hashes)) == \
                _oracle_capture(item, 1.0)
            assert (served.video_hash, tuple(served.audio_hashes)) == \
                _oracle_capture(item, 5.0)
            assert list(_FINGERPRINT_CACHE) == \
                [_memo_key(item, 1.0), _memo_key(item, 5.0)]
            assert list(fingerprint_module._AHEAD) == [_memo_key(item, 6.0)]
            assert counters["acr.memo.miss"] == 2
            assert counters["acr.memo.miss_batches"] == 2
            assert counters["acr.memo.hit"] == 1
            assert counters["acr.kernel.calls"] == 1
            assert counters["acr.kernel.positions"] == 3
        finally:
            clear_fingerprint_cache()

    def test_kernel_that_raises_changes_nothing(self, monkeypatch):
        item = LOOK_AHEAD_ITEMS[1]
        clear_fingerprint_cache()
        try:
            capture_batch(item, [1.0], ahead=[2.0, 3.0])
            memo = list(_FINGERPRINT_CACHE.items())
            parked = list(fingerprint_module._AHEAD.items())

            def broken(*args):
                raise RuntimeError("kernel failed")

            with monkeypatch.context() as patch:
                patch.setattr(fingerprint_module, "fingerprint_positions",
                              broken)
                with pytest.raises(RuntimeError):
                    capture_batch(item, [2.0, 9.0], ahead=[10.0])
            assert list(_FINGERPRINT_CACHE.items()) == memo
            assert list(fingerprint_module._AHEAD.items()) == parked
            # The next call retries: 2.0 comes from the side store, 9.0
            # and 10.0 from a new kernel call.
            captures = capture_batch(item, [2.0, 9.0], ahead=[10.0])
            assert [(c.video_hash, tuple(c.audio_hashes))
                    for c in captures] == \
                [_oracle_capture(item, 2.0), _oracle_capture(item, 9.0)]
            assert list(_FINGERPRINT_CACHE) == [
                _memo_key(item, p) for p in (1.0, 2.0, 9.0)]
            assert list(fingerprint_module._AHEAD) == [
                _memo_key(item, p) for p in (3.0, 10.0)]
            clear_fingerprint_cache()
            assert not _FINGERPRINT_CACHE
            assert not fingerprint_module._AHEAD
        finally:
            clear_fingerprint_cache()


#: sha256 of each country's reference samples, computed with the
#: per-sample build the batches replaced (as a list of per-entry
#: ``(content_id, position_s, video_hash, landmarks)`` tuples).
LIBRARY_DIGESTS = {
    "uk": "5ae3e7c71f93acd20ac5dc910e872b58ebe89e89145024b08e300051a95d578e",
    "us": "c2ebffbc9637ad69f37b0a624b627b0a0fcebb1ca05a324bfa91d916c549d94f",
}


@pytest.mark.slow
@pytest.mark.parametrize("country", sorted(LIBRARY_DIGESTS))
def test_reference_library_digest(country):
    from repro.testbed import reference_library
    text = repr(column_rows(reference_library(country, 0)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        LIBRARY_DIGESTS[country]
