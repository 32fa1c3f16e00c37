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
(:func:`render_frame_batch`, :func:`render_audio_batch`); the one-state
:func:`render_frame` and :func:`render_audio` are one-row calls into them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .content import ContentItem, PlayState

FRAME_HEIGHT = 18
FRAME_WIDTH = 32
AUDIO_SAMPLES = 512
AUDIO_RATE_HZ = 4000

_SCENE_LENGTH_S = 8.0  # average seconds per "scene" of stable imagery
_AUDIO_TONES = 4
_AUDIO_TIME = np.arange(AUDIO_SAMPLES, dtype=np.float32) / AUDIO_RATE_HZ


def _rng_for(seed: int, scene: int) -> np.random.Generator:
    return np.random.default_rng(np.uint64(seed) ^ np.uint64(scene * 2654435761 + 7))


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


def render_frame_batch(item: ContentItem,
                       positions: Sequence[float]) -> np.ndarray:
    """Luma frames of ``item`` at each position, float32 ``(n, H, W)``.

    A frame is a sum of a scene-stable random field plus a small
    per-second drift field, so frames within a scene have close
    fingerprints and scene cuts change the fingerprint sharply.  Each
    scene's field is drawn once per batch, each drift once per position.
    """
    seed = item.visual_seed
    clocks = [sample_clock(position) for position in positions]
    scenes, rows = _scene_rows(clocks)
    base = np.empty((len(scenes), FRAME_HEIGHT, FRAME_WIDTH),
                    dtype=np.float32)
    for scene, row in scenes.items():
        _rng_for(seed, scene).random(dtype=np.float32, out=base[row])
    drift = np.empty((len(clocks), FRAME_HEIGHT, FRAME_WIDTH),
                     dtype=np.float32)
    for row, (second, scene) in enumerate(clocks):
        _rng_for(seed ^ 0x5DEECE66D, scene * 100000 + second).random(
            dtype=np.float32, out=drift[row])
    return 0.96 * base[rows] + 0.04 * drift


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
    seed = item.visual_seed ^ 0xA5A5A5A5
    clocks = [sample_clock(position) for position in positions]
    scenes, rows = _scene_rows(clocks)
    tones = np.empty((len(scenes), _AUDIO_TONES), dtype=np.int64)
    amplitudes = np.empty((len(scenes), _AUDIO_TONES))
    for scene, row in scenes.items():
        rng = _rng_for(seed, scene)
        tones[row] = rng.integers(60, AUDIO_RATE_HZ // 4, size=_AUDIO_TONES)
        amplitudes[row] = rng.random(_AUDIO_TONES) * 0.5 + 0.2
    omega = (2.0 * np.pi * tones).astype(np.float32)[rows]
    amplitudes = amplitudes[rows]
    seconds = np.array([second for second, __ in clocks], dtype=np.int64)
    phase = ((seconds % 16) * 0.37).astype(np.float32)[:, None]
    signal = np.zeros((len(clocks), AUDIO_SAMPLES), dtype=np.float32)
    for tone in range(_AUDIO_TONES):
        signal += amplitudes[:, tone, None] * np.sin(
            omega[:, tone, None] * _AUDIO_TIME + phase)
    peak = np.abs(signal).max(axis=1, keepdims=True)
    return np.divide(signal, peak, out=signal, where=peak > 0)


def render_audio(state: PlayState) -> np.ndarray:
    """One second of synthetic audio as float32 samples in [-1, 1]."""
    return render_audio_batch(state.item, [state.position_s])[0]


def frame_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Normalised correlation between two frames (1.0 = identical)."""
    if a.shape != b.shape:
        raise ValueError("frame shape mismatch")
    fa = a.ravel() - a.mean()
    fb = b.ravel() - b.mean()
    denom = float(np.linalg.norm(fa) * np.linalg.norm(fb))
    if denom == 0:
        return 1.0
    return float(np.dot(fa, fb) / denom)


def render_sequence(item: ContentItem, start_s: float,
                    count: int, step_s: float = 1.0) -> list:
    """Frames for ``count`` consecutive samples starting at ``start_s``."""
    if count < 0:
        raise ValueError("negative count")
    return list(render_frame_batch(
        item, [start_s + i * step_s for i in range(count)]))
