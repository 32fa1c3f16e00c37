"""RIPE-Atlas-like measurement probes with known locations.

The RIPE IPmap latency engine "quickly computes measurements using RIPE
Atlas probes with known locations"; this module provides those probes and a
physically-grounded RTT measurement: speed-of-light lower bound plus a
routing inflation factor and jitter.
"""

from __future__ import annotations

from typing import Dict

from ..sim.rng import RngRegistry
from .locations import CITIES, City, min_rtt_ms


class AtlasProbe:
    """One anchor probe."""

    __slots__ = ("probe_id", "city")

    def __init__(self, probe_id: int, city: City) -> None:
        self.probe_id = probe_id
        self.city = city

    def __repr__(self) -> str:
        return f"AtlasProbe(#{self.probe_id} @ {self.city.name})"


DEFAULT_PROBE_CITIES = ["london", "amsterdam", "frankfurt", "new_york",
                        "ashburn", "san_jose", "seoul"]


class ProbeMesh:
    """A set of anchor probes that can ping any (ground-truth) location."""

    def __init__(self, rng: RngRegistry) -> None:
        self.rng = rng
        self.probes = [AtlasProbe(6000 + i, CITIES[name])
                       for i, name in enumerate(DEFAULT_PROBE_CITIES)]

    def measure_rtt_ms(self, probe: AtlasProbe, target: City) -> float:
        """Minimum observed RTT over three pings, in milliseconds.

        RTT = physical lower bound x routing inflation (5%..45%) + per-ping
        jitter; taking the min over samples mirrors how IPmap's latency
        engine discards queueing noise.
        """
        floor = min_rtt_ms(probe.city, target)
        best = float("inf")
        stream = f"probe:{probe.probe_id}:{target.name}"
        for __ in range(3):
            inflation = 1.05 + 0.40 * self.rng.stream(stream).random()
            jitter = 0.4 * self.rng.stream(stream).random()
            best = min(best, floor * inflation + jitter)
        # Same-city measurements still take a non-zero LAN/metro hop.
        return max(best, 0.6)

    def measurements_to(self, target: City) -> Dict[int, float]:
        """RTT from every probe to the target, keyed by probe id."""
        return {probe.probe_id: self.measure_rtt_ms(probe, target)
                for probe in self.probes}

    def probe(self, probe_id: int) -> AtlasProbe:
        for probe in self.probes:
            if probe.probe_id == probe_id:
                return probe
        raise KeyError(f"no probe {probe_id}")
