"""Latency and serialization model for the testbed's paths.

The capture point is the access point, so observed timing is:

* TV -> AP: Wi-Fi hop (sub-millisecond).
* AP -> Internet destination: wired WAN path; RTT depends on where the
  destination server physically is — which is exactly what the RIPE IPmap
  latency engine (:mod:`repro.geo.ripe_ipmap`) exploits for geolocation.
"""

from __future__ import annotations

from typing import Dict

from ..sim.clock import microseconds, milliseconds
from ..sim.rng import RngRegistry
from .addresses import Ipv4Address

WIFI_HOP_NS = microseconds(800)
SERIALIZATION_NS_PER_BYTE = 8  # ~1 Gbps wired path
JITTER_FRACTION = 0.06  # of each delay, drawn per packet

# One-way WAN latency in milliseconds from a vantage region to a server
# region.  Derived from typical public RTT matrices (London<->Amsterdam
# ~8 ms RTT, transatlantic ~75 ms RTT).
ONE_WAY_MS: Dict[str, Dict[str, float]] = {
    "uk": {
        "london": 1.5,
        "amsterdam": 4.0,
        "frankfurt": 6.5,
        "new_york": 38.0,
        "us_east": 40.0,
        "us_west": 70.0,
        "seoul": 120.0,
    },
    "us_west": {
        "london": 68.0,
        "amsterdam": 72.0,
        "frankfurt": 75.0,
        "new_york": 32.0,
        "us_east": 31.0,
        "us_west": 4.0,
        "seoul": 62.0,
    },
}


class LatencyModel:
    """Per-destination one-way delays with reproducible jitter."""

    def __init__(self, vantage: str, rng: RngRegistry) -> None:
        if vantage not in ONE_WAY_MS:
            raise ValueError(f"unknown vantage region: {vantage!r}")
        self.vantage = vantage
        self._rng = rng
        self._server_regions: Dict[Ipv4Address, str] = {}

    def register_server(self, address: Ipv4Address, region: str) -> None:
        """Pin a server address to a physical region."""
        if region not in ONE_WAY_MS[self.vantage]:
            raise ValueError(f"unknown server region: {region!r}")
        self._server_regions[address] = region

    def region_of(self, address: Ipv4Address) -> str:
        region = self._server_regions.get(address)
        if region is None:
            raise KeyError(f"no region registered for {address}")
        return region

    def one_way_ns(self, address: Ipv4Address) -> int:
        """One-way AP -> server delay with jitter, in nanoseconds."""
        region = self.region_of(address)
        base = milliseconds(ONE_WAY_MS[self.vantage][region])
        return self._rng.jitter_ns(f"latency:{region}", base,
                                   JITTER_FRACTION)

    def rtt_ns(self, address: Ipv4Address) -> int:
        """Round-trip AP <-> server delay with jitter."""
        return self.one_way_ns(address) + self.one_way_ns(address)

    def serialization_ns(self, size: int) -> int:
        """Time to put ``size`` bytes on the wire."""
        return size * SERIALIZATION_NS_PER_BYTE

    def wifi_hop_ns(self) -> int:
        """TV <-> AP hop delay with jitter."""
        return self._rng.jitter_ns("latency:wifi", WIFI_HOP_NS,
                                   JITTER_FRACTION)
