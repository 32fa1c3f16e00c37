"""Synthetic frame and audio generation.

Frames are small luma rasters generated deterministically from
``(content.visual_seed, playback_second)``, built so that:

* the same content at the same position always renders the same frame
  (fingerprints must be reproducible end-to-end);
* consecutive seconds are visually *similar* but not identical (scene
  drift), exercising the matcher's Hamming tolerance;
* different content items are visually distinct with overwhelming
  probability.

Audio is a short deterministic waveform per second, from which the audio
fingerprinter extracts spectral landmarks.

Both render a whole batch of one item's positions at once
(:func:`render_frame_batch`, :func:`render_audio_batch`, or both with one
seeding pass: :func:`render_batch`); the one-state :func:`render_frame`
and :func:`render_audio` are one-row calls into them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .content import ContentItem, PlayState

FRAME_HEIGHT = 18
FRAME_WIDTH = 32
AUDIO_SAMPLES = 512
AUDIO_RATE_HZ = 4000

_SCENE_LENGTH_S = 8.0  # average seconds per "scene" of stable imagery
_AUDIO_TONES = 4
_AUDIO_TIME = np.arange(AUDIO_SAMPLES, dtype=np.float32) / AUDIO_RATE_HZ


# numpy's ``SeedSequence`` constants (``numpy/random/bit_generator.pyx``).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """``init`` and the next ``count`` values of ``hash_const *= mult``,
    as a uint32 column."""
    chain = [init]
    for __ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hash_calls(chain: np.ndarray, first: int,
                count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` consecutive
    ``hashmix`` calls: call ``k`` xors with ``chain[k]`` and multiplies
    by ``chain[k + 1]``."""
    return chain[first:first + count], chain[first + 1:first + count + 1]


# ``SeedSequence`` steps its hash constant once per ``hashmix``: one per
# pool word, then one per (source, destination) pair of pool words, and
# ``generate_state`` steps its own once per output word.  None of this
# depends on the entropy, so every pass reuses it.
_HASH_A = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE ** 2)
_HASH_B = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_FILL = _hash_calls(_HASH_A, 0, _POOL_SIZE)
#: Round ``src`` mixes pool word ``src`` into every other word, in order.
_ROUNDS = [(np.array([dst for dst in range(_POOL_SIZE) if dst != src]),
            *_hash_calls(_HASH_A, _POOL_SIZE + src * (_POOL_SIZE - 1),
                         _POOL_SIZE - 1))
           for src in range(_POOL_SIZE)]
_OUTPUT = _hash_calls(_HASH_B, 0, 2 * _POOL_SIZE)
_OUTPUT_POOL_WORDS = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


def _hashmix(value: np.ndarray, xor: np.ndarray,
             mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    value ^= value >> 16
    return value


def _seed_words(keys: Sequence[int]) -> np.ndarray:
    """``np.random.SeedSequence(key).generate_state(4, np.uint64)`` for
    every key, as the rows of an ``(n, 4)`` uint64 array.

    numpy's mixing, one stream per column of uint32 arithmetic (which
    wraps exactly as its C does).  A key below 2**64 is at most two
    entropy words, low word first; the pool's missing words hash as 0,
    which is what ``SeedSequence`` hashes for them too.  A key outside
    uint64 raises ``OverflowError``, as ``np.uint64(key)`` does.
    """
    keys = np.array(keys, dtype=np.uint64)
    entropy = np.zeros((_POOL_SIZE, len(keys)), dtype=np.uint32)
    entropy[0] = keys & 0xFFFFFFFF
    entropy[1] = keys >> 32
    pool = _hashmix(entropy, *_FILL)
    for src, (dsts, xor, mul) in enumerate(_ROUNDS):
        mixed = pool[dsts] * _MIX_MULT_L
        mixed -= _hashmix(pool[src], xor, mul) * _MIX_MULT_R
        mixed ^= mixed >> 16
        pool[dsts] = mixed
    state = _hashmix(pool[_OUTPUT_POOL_WORDS], *_OUTPUT)
    words = state[0::2] | state[1::2].astype(np.uint64) << 32
    return np.ascontiguousarray(words.T)


class _SeedWords(ISeedSequence):
    """Four precomputed seeding words, handed to ``np.random.PCG64``
    (which asks for exactly ``generate_state(4, np.uint64)``)."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int,
                       dtype: type = np.uint32) -> np.ndarray:
        return self._words


def _streams(keys: Sequence[int]) -> List[np.random.Generator]:
    """``np.random.default_rng(np.uint64(key))`` for every key, draw for
    draw, with every stream's ``SeedSequence`` mixing done in one pass."""
    return [np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for words in _seed_words(keys)]


def _stream_key(seed: int, index: int) -> int:
    """The entropy of stream ``index`` of ``seed`` (a Python int, so a
    key past 2**64 reaches ``_seed_words`` and overflows there)."""
    return seed ^ (index * 2654435761 + 7)


def sample_clock(position_s: float) -> Tuple[int, int]:
    """``(second, scene)`` of a playback position.

    With the item's visual seed, this is everything a rendered frame or
    audio clip depends on.
    """
    if position_s < 0:
        raise ValueError("negative playback position")
    return int(position_s), int(position_s / _SCENE_LENGTH_S)


def _scene_rows(clocks: List[Tuple[int, int]]) -> Tuple[Dict[int, int],
                                                        np.ndarray]:
    """Each distinct scene's row (first-seen order) and each sample's."""
    rows: Dict[int, int] = {}
    for __, scene in clocks:
        rows.setdefault(scene, len(rows))
    return rows, np.array([rows[scene] for __, scene in clocks],
                          dtype=np.intp)


def _render(item: ContentItem, positions: Sequence[float], frames: bool,
            audio: bool) -> List[np.ndarray]:
    """The frames, then the audio, of ``item`` at each position, for
    whichever of the two are asked for: every random stream they draw
    from is seeded in one :func:`_seed_words` pass.

    The streams come in three families, listed in this order: one scene
    field per scene and one drift field per position (frames), then one
    tone set per scene (audio).  A stream's key depends only on the
    item, the family and its scene or position, so each family draws the
    same values whether it is rendered alone or with the other.
    """
    seed = item.visual_seed
    clocks = [sample_clock(position) for position in positions]
    scenes, rows = _scene_rows(clocks)
    keys: List[int] = []
    if frames:
        keys += [_stream_key(seed, scene) for scene in scenes]
        keys += [_stream_key(seed ^ 0x5DEECE66D, scene * 100000 + second)
                 for second, scene in clocks]
    field_count = len(keys)
    if audio:
        keys += [_stream_key(seed ^ 0xA5A5A5A5, scene) for scene in scenes]
    streams = _streams(keys)
    rendered = []
    if frames:
        fields = np.empty((field_count, FRAME_HEIGHT, FRAME_WIDTH),
                          dtype=np.float32)
        for stream, field in zip(streams, fields):
            stream.random(dtype=np.float32, out=field)
        base, drift = fields[:len(scenes)], fields[len(scenes):]
        rendered.append(0.96 * base[rows] + 0.04 * drift)
    if audio:
        tones = np.empty((len(scenes), _AUDIO_TONES), dtype=np.int64)
        amplitudes = np.empty((len(scenes), _AUDIO_TONES))
        for row, stream in enumerate(streams[field_count:]):
            tones[row] = stream.integers(60, AUDIO_RATE_HZ // 4,
                                         size=_AUDIO_TONES)
            amplitudes[row] = stream.random(_AUDIO_TONES) * 0.5 + 0.2
        omega = (2.0 * np.pi * tones).astype(np.float32)[rows]
        amplitudes = amplitudes[rows]
        seconds = np.array([second for second, __ in clocks],
                           dtype=np.int64)
        phase = ((seconds % 16) * 0.37).astype(np.float32)[:, None]
        signal = np.zeros((len(clocks), AUDIO_SAMPLES), dtype=np.float32)
        for tone in range(_AUDIO_TONES):
            signal += amplitudes[:, tone, None] * np.sin(
                omega[:, tone, None] * _AUDIO_TIME + phase)
        peak = np.abs(signal).max(axis=1, keepdims=True)
        rendered.append(np.divide(signal, peak, out=signal,
                                  where=peak > 0))
    return rendered


def render_batch(item: ContentItem, positions: Sequence[float]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`render_frame_batch` and :func:`render_audio_batch` of the
    same positions, with one seeding pass for both."""
    frames, audio = _render(item, positions, frames=True, audio=True)
    return frames, audio


def render_frame_batch(item: ContentItem,
                       positions: Sequence[float]) -> np.ndarray:
    """Luma frames of ``item`` at each position, float32 ``(n, H, W)``.

    A frame is a sum of a scene-stable random field plus a small
    per-second drift field, so frames within a scene have close
    fingerprints and scene cuts change the fingerprint sharply.  Each
    scene's field is drawn once per batch, each drift once per position.
    """
    frames, = _render(item, positions, frames=True, audio=False)
    return frames


def render_frame(state: PlayState) -> np.ndarray:
    """Render the luma frame for a play state as float32 in [0, 1]."""
    return render_frame_batch(state.item, [state.position_s])[0]


def render_audio_batch(item: ContentItem,
                       positions: Sequence[float]) -> np.ndarray:
    """One second of audio per position, float32 ``(n, AUDIO_SAMPLES)``.

    Each waveform is a mixture of a few content-and-scene-specific tones
    in [-1, 1] — enough structure for spectral landmarks to be
    meaningful.  Tones are drawn once per scene.  The arithmetic is
    pinned to the bit: the tone argument is float32 (a Python float
    meeting a float32 array), each tone's ``amplitude * wave`` is added
    in float64 and rounded to float32 in tone order, and the peak
    division is float32.  A one-ulp difference can reorder near-tie
    spectrum bins and so change the audio landmarks.
    """
    audio, = _render(item, positions, frames=False, audio=True)
    return audio


def render_audio(state: PlayState) -> np.ndarray:
    """One second of synthetic audio as float32 samples in [-1, 1]."""
    return render_audio_batch(state.item, [state.position_s])[0]


def frame_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Normalised correlation between two frames (1.0 = identical).

    A flat frame has nothing to correlate: two equal flat frames score
    1.0, and a flat frame scores 0.0 against any other frame.
    """
    if a.shape != b.shape:
        raise ValueError("frame shape mismatch")
    fa = a.ravel() - a.mean()
    fb = b.ravel() - b.mean()
    denom = float(np.linalg.norm(fa) * np.linalg.norm(fb))
    # A flat frame's float32 mean can round, leaving a constant residue
    # that would correlate perfectly with another flat frame's.
    if denom == 0 or np.ptp(a) == 0 or np.ptp(b) == 0:
        return 1.0 if np.array_equal(a, b) else 0.0
    return float(np.dot(fa, fb) / denom)


def render_sequence(item: ContentItem, start_s: float,
                    count: int, step_s: float = 1.0) -> list:
    """Frames for ``count`` consecutive samples starting at ``start_s``."""
    if count < 0:
        raise ValueError("negative count")
    return list(render_frame_batch(
        item, [start_s + i * step_s for i in range(count)]))
