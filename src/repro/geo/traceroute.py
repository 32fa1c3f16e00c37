"""Synthetic traceroute over the simulated Internet topology.

The paper's validation step: "We first perform traceroute from a location in
the US or UK, then use RIPE IPmap for geolocation."  The hop path gives
IPmap's reverse-DNS engine its raw material — transit-router PTR names that
embed airport codes.
"""

from __future__ import annotations

from typing import List, Optional

from ..net.addresses import Ipv4Address
from ..sim.rng import RngRegistry
from .ipspace import IpSpace
from .locations import CITIES, City, min_rtt_ms

# Ordered transit cities traversed between a vantage region and a
# destination city.  Paths reflect common European/transatlantic routing.
_TRANSIT_PATHS = {
    ("uk", "london"): ["london"],
    ("uk", "amsterdam"): ["london", "amsterdam"],
    ("uk", "frankfurt"): ["london", "frankfurt"],
    ("uk", "new_york"): ["london", "new_york"],
    ("uk", "ashburn"): ["london", "new_york"],
    ("uk", "san_jose"): ["london", "new_york", "san_jose"],
    ("uk", "seoul"): ["london", "frankfurt", "seoul"],
    ("us_west", "london"): ["san_jose", "new_york", "london"],
    ("us_west", "amsterdam"): ["san_jose", "new_york", "amsterdam"],
    ("us_west", "frankfurt"): ["san_jose", "new_york", "frankfurt"],
    ("us_west", "new_york"): ["san_jose", "new_york"],
    ("us_west", "ashburn"): ["san_jose", "new_york"],
    ("us_west", "san_jose"): ["san_jose"],
    ("us_west", "seoul"): ["san_jose", "seoul"],
}

_VANTAGE_CITY = {"uk": "london", "us_west": "san_jose"}


class Hop:
    """One traceroute hop."""

    __slots__ = ("index", "address", "rtt_ms", "ptr_name")

    def __init__(self, index: int, address: Ipv4Address, rtt_ms: float,
                 ptr_name: Optional[str]) -> None:
        self.index = index
        self.address = address
        self.rtt_ms = rtt_ms
        self.ptr_name = ptr_name

    def __repr__(self) -> str:
        name = self.ptr_name or "?"
        return f"Hop({self.index}: {self.address} {name} {self.rtt_ms:.1f}ms)"


class TracerouteResult:
    """A complete traceroute to one destination."""

    __slots__ = ("target", "vantage", "hops")

    def __init__(self, target: Ipv4Address, vantage: str,
                 hops: List[Hop]) -> None:
        self.target = target
        self.vantage = vantage
        self.hops = hops

    @property
    def transit_ptr_names(self) -> List[str]:
        return [hop.ptr_name for hop in self.hops if hop.ptr_name]

    def __repr__(self) -> str:
        return (f"TracerouteResult({self.target} from {self.vantage}, "
                f"{len(self.hops)} hops)")


class TracerouteEngine:
    """Builds hop paths from the ground-truth topology."""

    def __init__(self, ipspace: IpSpace, rng: RngRegistry) -> None:
        self.ipspace = ipspace
        self.rng = rng
        self._transit_cache = {}

    def _transit_router(self, city_key: str, position: int) -> Hop:
        key = (city_key, position)
        record = self._transit_cache.get(key)
        if record is None:
            record = self.ipspace.allocate("transit", city_key,
                                           ptr_label=f"ae-{position}")
            self._transit_cache[key] = record
        return record

    def trace(self, vantage: str, target: Ipv4Address) -> TracerouteResult:
        """Traceroute from a vantage region to a ground-truth server."""
        if vantage not in _VANTAGE_CITY:
            raise ValueError(f"unknown vantage: {vantage!r}")
        destination = self.ipspace.lookup(target)
        if destination is None:
            raise KeyError(f"target not in ground truth: {target}")
        dest_key = _city_key(destination.city)
        path = _TRANSIT_PATHS[(vantage, dest_key)]
        origin = CITIES[_VANTAGE_CITY[vantage]]
        hops: List[Hop] = []
        cumulative = 1.0  # first-mile
        for position, city_key in enumerate(path, start=1):
            city = CITIES[city_key]
            cumulative = max(cumulative,
                             min_rtt_ms(origin, city) * 1.1) \
                + 0.3 * self.rng.stream("traceroute").random()
            record = self._transit_router(city_key, position)
            hops.append(Hop(position, record.address, round(cumulative, 2),
                            record.ptr_name))
        final_rtt = max(cumulative,
                        min_rtt_ms(origin, destination.city) * 1.12) + 0.4
        hops.append(Hop(len(path) + 1, target, round(final_rtt, 2),
                        destination.ptr_name))
        return TracerouteResult(target, vantage, hops)


def _city_key(city: City) -> str:
    for key, value in CITIES.items():
        if value == city:
            return key
    raise KeyError(f"city not in gazetteer: {city!r}")
