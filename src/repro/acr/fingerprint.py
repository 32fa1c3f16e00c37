"""Content fingerprinting — the "Shazam-like" core of ACR.

Two modalities, as in deployed ACR systems:

* **Video**: a difference hash (dHash).  The frame is downsampled to a
  9x8 luma grid; each bit encodes whether a pixel is brighter than its
  right neighbour.  Robust to brightness shifts and mild noise, which is
  exactly the drift :mod:`repro.media.frames` injects within a scene.
* **Audio**: spectral landmarks.  The strongest FFT peaks of a one-second
  excerpt are paired into (f1, f2, dt) hashes, Shazam-style.

Fingerprints are compact ("essentially hash of the content", §2) and the
serialized batch size is what travels inside TLS to the ACR server — the
quantity the paper measures on the wire.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..media.content import ContentItem, PlayState
from ..media.frames import render_batch, sample_clock
from ..obs.metrics import get_registry

VIDEO_HASH_BITS = 64
_DHASH_WIDTH = 9
_DHASH_HEIGHT = 8

AUDIO_PEAKS = 5
AUDIO_FANOUT = 3
AUDIO_LANDMARKS = AUDIO_PEAKS * AUDIO_FANOUT

#: (anchor rank, target rank, rank gap) of every landmark, in hash order.
_ANCHORS, _TARGETS, _GAPS = (np.array(column) for column in zip(*(
    (i, i + j, j) for i in range(AUDIO_PEAKS)
    for j in range(1, AUDIO_FANOUT + 1))))


def video_fingerprint_batch(frames: np.ndarray) -> np.ndarray:
    """64-bit dHash of each luma frame in an ``(n, h, w)`` stack, as a
    ``uint64`` array."""
    if frames.ndim != 3:
        raise ValueError("expected a stack of 2-D luma frames")
    grids = _resample(frames, _DHASH_HEIGHT, _DHASH_WIDTH)
    # MSB-first row-major neighbour comparisons, packed in one shot —
    # identical bits to the original per-cell shift loop.
    comparisons = grids[:, :, :-1] > grids[:, :, 1:]
    packed = np.packbits(comparisons.reshape(
        len(frames), _DHASH_HEIGHT * (_DHASH_WIDTH - 1)), axis=1)
    return packed.view(">u8").ravel().astype(np.uint64)


def video_fingerprint(frame: np.ndarray) -> int:
    """64-bit dHash of a luma frame."""
    if frame.ndim != 2:
        raise ValueError("expected a 2-D luma frame")
    return int(video_fingerprint_batch(frame[None])[0])


#: (frame shape, grid shape) -> [(flat grid positions, gather indices)],
#: one entry per distinct block shape.  Frames are fixed-size, so the
#: plan is computed once and the per-frame work is a handful of batched
#: gather-and-reduce operations instead of rows*cols tiny ones.
_RESAMPLE_PLANS: Dict[Tuple[int, int, int, int], List] = {}


def _resample_plan(h: int, w: int, rows: int, cols: int) -> List:
    key = (h, w, rows, cols)
    plan = _RESAMPLE_PLANS.get(key)
    if plan is None:
        row_edges = np.linspace(0, h, rows + 1).astype(int)
        col_edges = np.linspace(0, w, cols + 1).astype(int)
        by_shape: Dict[Tuple[int, int], List] = {}
        for r in range(rows):
            row_stop = int(max(row_edges[r + 1], row_edges[r] + 1))
            block_rows = np.arange(int(row_edges[r]), row_stop)
            for c in range(cols):
                col_stop = int(max(col_edges[c + 1], col_edges[c] + 1))
                block_cols = np.arange(int(col_edges[c]), col_stop)
                positions, indices = by_shape.setdefault(
                    (len(block_rows), len(block_cols)), ([], []))
                positions.append(r * cols + c)
                indices.append(block_rows[:, None] * w
                               + block_cols[None, :])
        plan = [(np.array(positions), np.stack(indices))
                for positions, indices in by_shape.values()]
        _RESAMPLE_PLANS[key] = plan
    return plan


def _resample(frames: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Block-mean downsample each of ``n`` frames to ``rows x cols``.

    Same-shape blocks of every frame are gathered into one
    ``(n, blocks, h, w)`` array per shape class and averaged in a single
    batched reduction — bit-identical to ``mean`` over each block view
    on its own (``tests/test_acr_fingerprint.py`` pins the equivalence),
    just without thousands of tiny reductions per frame.
    """
    n, h, w = frames.shape
    flat = frames.reshape(n, h * w)
    out = np.empty((n, rows * cols), dtype=np.float64)
    for positions, indices in _resample_plan(h, w, rows, cols):
        # Sum over count is ``mean`` to the bit, without the Python-level
        # overhead of ``mean`` (about half of a one-frame call).
        out[:, positions] = np.add.reduce(flat[:, indices], axis=(2, 3)) \
            / indices[0].size
    return out.reshape(n, rows, cols)


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two 64-bit hashes."""
    return ((a ^ b) & ((1 << VIDEO_HASH_BITS) - 1)).bit_count()


def audio_fingerprint_batch(signals: np.ndarray) -> np.ndarray:
    """Landmark hashes of each one-second excerpt in an ``(n, samples)``
    stack, as a ``uint32`` array of shape ``(n, AUDIO_LANDMARKS)``.

    Each excerpt yields ``AUDIO_LANDMARKS`` 32-bit hashes of
    (anchor_bin, target_bin, rank_gap) triples over its strongest FFT
    bins, strongest anchor first.
    """
    if signals.ndim != 2:
        raise ValueError("expected a stack of 1-D audio excerpts")
    spectra = np.abs(np.fft.rfft(signals, axis=1))
    if spectra.shape[1] < AUDIO_PEAKS + AUDIO_FANOUT:
        raise ValueError("audio excerpt too short")
    peaks = np.argsort(spectra, axis=1)[:, ::-1][
        :, :AUDIO_PEAKS + AUDIO_FANOUT] & 0xFFF
    hashes = (peaks[:, _ANCHORS] << 20) | (peaks[:, _TARGETS] << 8) | _GAPS
    return hashes.astype(np.uint32)


def fingerprint_positions(item: ContentItem, positions: Sequence[float]
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Render ``item`` at each position and fingerprint it, unmemoized:
    the video hashes and the landmark rows, as the batch kernels return
    them.  Frames and audio are rendered together, so their random
    streams are seeded in one pass (:func:`~repro.media.frames.render_batch`).
    """
    frames, audio = render_batch(item, positions)
    return video_fingerprint_batch(frames), audio_fingerprint_batch(audio)


class Capture:
    """One fingerprinted screen capture."""

    __slots__ = ("offset_ns", "video_hash", "audio_hashes")

    def __init__(self, offset_ns: int, video_hash: int,
                 audio_hashes: Sequence[int]) -> None:
        self.offset_ns = offset_ns
        self.video_hash = video_hash
        self.audio_hashes = list(audio_hashes)

    def __repr__(self) -> str:
        return (f"Capture(+{self.offset_ns / 1e9:.1f}s, "
                f"video={self.video_hash:#018x}, "
                f"{len(self.audio_hashes)} audio landmarks)")


#: (visual_seed, playback second, scene) -> (video hash, audio hashes).
#: Rendering and fingerprinting are pure functions of exactly this key
#: (see ``repro.media.frames``), so the memo never changes a value — it
#: only skips re-rendering content the process has fingerprinted before.
#: Channels replay the same content across grid cells and fleet
#: households, which makes the hit rate high precisely where cold runs
#: hurt (scorecard/report/fleet sweeps within one process).
_FINGERPRINT_CACHE: Dict[Tuple[int, int, int], Tuple[int, Tuple[int, ...]]] \
    = {}

#: Fingerprints rendered ahead of their first ask, keyed and valued as
#: the memo: the ``ahead`` positions :func:`capture_batch` rendered
#: beside its misses.  An entry moves into the memo when a call first
#: asks for it, so the memo's entries, their order and the
#: ``acr.memo.*`` counts are those of a run that never looked ahead.
_AHEAD: Dict[Tuple[int, int, int], Tuple[int, Tuple[int, ...]]] = {}


def clear_fingerprint_cache() -> None:
    """Drop the process-wide content-fingerprint memo and the
    fingerprints rendered ahead of their first ask."""
    _FINGERPRINT_CACHE.clear()
    _AHEAD.clear()


def capture_batch(item: ContentItem, positions: Sequence[float],
                  offsets_ns: Optional[Sequence[int]] = None,
                  ahead: Iterable[float] = ()) -> List[Capture]:
    """Fingerprint ``item`` at each playback position (memoized).

    Capture ``i`` carries ``offsets_ns[i]`` (every offset is 0 without
    them).  Equal to one :func:`capture_state` call per position, in
    order: the same captures, memo entries and ``acr.memo.hit``/``miss``
    counts (a key that repeats within the batch is one miss, then hits).
    A call with misses counts one ``acr.memo.miss_batches``; only what
    it renders becomes Python ints and tuples.

    ``ahead`` holds positions of ``item`` that later calls are expected
    to ask for.  It is read only when the call has misses to render:
    then the misses and every ``ahead`` key not yet fingerprinted are
    rendered by one :func:`fingerprint_positions` call (one
    ``acr.kernel.calls``, its length in ``acr.kernel.positions``), and
    the ``ahead`` keys wait in ``_AHEAD`` for their first ask.  A miss
    found there is served without a kernel call.
    """
    if offsets_ns is None:
        offsets_ns = [0] * len(positions)
    elif len(offsets_ns) != len(positions):
        raise ValueError("need one offset per position")
    seed = item.visual_seed
    keys = [(seed, *sample_clock(position)) for position in positions]
    missing = {key: position for key, position in zip(keys, positions)
               if key not in _FINGERPRINT_CACHE}
    registry = get_registry()
    if missing:
        registry.inc("acr.memo.miss", len(missing))
        registry.inc("acr.memo.miss_batches")
        render = {key: position for key, position in missing.items()
                  if key not in _AHEAD}
        if render:
            for position in ahead:
                key = (seed, *sample_clock(position))
                if key not in _FINGERPRINT_CACHE and key not in _AHEAD:
                    render.setdefault(key, position)
            registry.inc("acr.kernel.calls")
            registry.inc("acr.kernel.positions", len(render))
            video, audio = fingerprint_positions(item, list(render.values()))
            _AHEAD.update(zip(render, zip(
                video.tolist(), map(tuple, audio.tolist()))))
        _FINGERPRINT_CACHE.update((key, _AHEAD.pop(key)) for key in missing)
    if len(keys) > len(missing):
        registry.inc("acr.memo.hit", len(keys) - len(missing))
    return [Capture(offset_ns, *_FINGERPRINT_CACHE[key])
            for key, offset_ns in zip(keys, offsets_ns)]


def capture_state(state: PlayState) -> Capture:
    """Fingerprint whatever a play state is showing (memoized), at
    offset 0."""
    return capture_batch(state.item, [state.position_s], [0])[0]


#: Per capture on the wire: offset (ms), video hash, landmark count.
_CAPTURE_HEAD = struct.Struct(">IQB")


class FingerprintBatch:
    """A batch of captures as shipped to the ACR server.

    ``encode`` defines the exact on-the-wire payload: an 8-byte header,
    then per capture a 4-byte offset, 8-byte video hash, a count byte and
    4 bytes per audio landmark.  The wire sizes in the paper's Tables 2-5
    emerge from this encoding times the vendor's capture cadence.
    """

    HEADER = struct.Struct(">4sHH")
    MAGIC = b"ACRB"

    def __init__(self, device_id: str, captures: List[Capture]) -> None:
        self.device_id = device_id
        self.captures = captures

    def encode(self) -> bytes:
        out = bytearray()
        device = self.device_id.encode("ascii")[:65535]
        out += self.HEADER.pack(self.MAGIC, len(device), len(self.captures))
        out += device
        for capture in self.captures:
            out += _CAPTURE_HEAD.pack(capture.offset_ns // 1_000_000,
                                      capture.video_hash,
                                      min(255, len(capture.audio_hashes)))
            for landmark in capture.audio_hashes[:255]:
                out += struct.pack(">I", landmark)
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "FingerprintBatch":
        """Parse an encoded batch; ``ValueError`` on a bad magic, a
        non-ASCII device id or any truncation."""
        if len(raw) < cls.HEADER.size:
            raise ValueError("batch too short")
        magic, device_len, count = cls.HEADER.unpack_from(raw, 0)
        if magic != cls.MAGIC:
            raise ValueError("bad batch magic")
        offset = cls.HEADER.size
        if offset + device_len > len(raw):
            raise ValueError("batch truncated in the device id")
        device_id = raw[offset:offset + device_len].decode("ascii")
        offset += device_len
        captures: List[Capture] = []
        for __ in range(count):
            if offset + _CAPTURE_HEAD.size > len(raw):
                raise ValueError("batch truncated in a capture header")
            ms, video_hash, n_audio = _CAPTURE_HEAD.unpack_from(raw, offset)
            offset += _CAPTURE_HEAD.size
            if offset + 4 * n_audio > len(raw):
                raise ValueError("batch truncated in a capture's landmarks")
            audio = list(struct.unpack_from(f">{n_audio}I", raw, offset))
            offset += 4 * n_audio
            captures.append(Capture(ms * 1_000_000, video_hash, audio))
        return cls(device_id, captures)

    @property
    def encoded_size(self) -> int:
        return len(self.encode())

    def __len__(self) -> int:
        return len(self.captures)

    def __repr__(self) -> str:
        return (f"FingerprintBatch({self.device_id!r}, "
                f"{len(self.captures)} captures)")
