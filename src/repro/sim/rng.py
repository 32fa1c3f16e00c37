"""Named, seeded random streams.

Every source of randomness in a simulated experiment (boot jitter, payload
padding, link latency, channel zapping...) draws from its own named stream
derived from the experiment seed.  Adding a new consumer of randomness never
perturbs existing streams, which keeps calibrated traffic volumes stable
across code changes — the property the paper's Tables 2-5 comparison relies
on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory of independent, reproducible random streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

    def jitter_ns(self, name: str, base: int, fraction: float = 0.05) -> int:
        """``base`` nanoseconds +/- ``fraction`` uniform jitter.

        The result is clamped to be non-negative, so callers may pass small
        bases without worrying about scheduling in the past.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError("fraction must be in [0, 1)")
        spread = int(base * fraction)
        if spread == 0:
            return int(base)
        # ``randint(-spread, spread)`` inlined: the same getrandbits
        # rejection loop, so the same value from the same stream state.
        getrandbits = self.stream(name).getrandbits
        width = 2 * spread + 1
        bits = width.bit_length()
        draw = getrandbits(bits)
        while draw >= width:
            draw = getrandbits(bits)
        return max(0, int(base) - spread + draw)

    def bounded_int(self, name: str, low: int, high: int) -> int:
        """Uniform integer in [low, high] from the named stream."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return self.stream(name).randint(low, high)

    def chance(self, name: str, probability: float) -> bool:
        """Bernoulli draw from the named stream."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        return self.stream(name).random() < probability

    def token_bytes(self, name: str, n: int) -> bytes:
        """``n`` reproducible pseudo-random bytes from the named stream."""
        return self.stream(name).randbytes(n)

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of the parent's."""
        return RngRegistry(_derive_seed(self.root_seed, f"fork:{name}"))
