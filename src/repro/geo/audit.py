"""The paper's geolocation workflow, end to end.

For every observed ACR server address: look it up in MaxMind and
IP2Location; if they disagree (or either has no answer), run a traceroute
from the experiment's vantage and ask RIPE IPmap, whose verdict wins.
"""

from __future__ import annotations

from typing import Optional

from ..net.addresses import Ipv4Address
from ..sim.rng import RngRegistry
from .dpf import DpfList
from .geoip import GeoIpDatabase, build_ip2location, build_maxmind
from .ipspace import IpSpace
from .locations import City
from .probes import ProbeMesh
from .ripe_ipmap import LatencyEngine, ReverseDnsEngine, RipeIpMap
from .traceroute import TracerouteEngine, TracerouteResult


class GeolocationFinding:
    """The audit's conclusion for one address."""

    __slots__ = ("address", "domain", "maxmind_city", "ip2location_city",
                 "databases_agree", "ipmap_used", "city", "traceroute")

    def __init__(self, address: Ipv4Address, domain: Optional[str],
                 maxmind_city: Optional[City],
                 ip2location_city: Optional[City],
                 databases_agree: bool, ipmap_used: bool,
                 city: Optional[City],
                 traceroute: Optional[TracerouteResult]) -> None:
        self.address = address
        self.domain = domain
        self.maxmind_city = maxmind_city
        self.ip2location_city = ip2location_city
        self.databases_agree = databases_agree
        self.ipmap_used = ipmap_used
        self.city = city
        self.traceroute = traceroute

    @property
    def country(self) -> Optional[str]:
        return self.city.country if self.city else None

    def __repr__(self) -> str:
        where = self.city.name if self.city else "unknown"
        via = "IPmap" if self.ipmap_used else "GeoIP"
        return (f"GeolocationFinding({self.domain or self.address} -> "
                f"{where} via {via})")


class GeolocationAudit:
    """Wires the databases, probes, traceroute and IPmap together."""

    def __init__(self, ipspace: IpSpace, rng: RngRegistry,
                 ptr_lookup=None) -> None:
        self.ipspace = ipspace
        self.maxmind: GeoIpDatabase = build_maxmind(ipspace)
        self.ip2location: GeoIpDatabase = build_ip2location(ipspace)
        self.mesh = ProbeMesh(rng)
        self.traceroute_engine = TracerouteEngine(ipspace, rng)
        lookup = ptr_lookup or ipspace.ptr_name
        self.ipmap = RipeIpMap(LatencyEngine(self.mesh, ipspace),
                               ReverseDnsEngine(lookup))
        self.dpf = DpfList()

    def locate(self, address: Ipv4Address, vantage: str,
               domain: Optional[str] = None) -> GeolocationFinding:
        """Run the full workflow for one address."""
        mm_city = self.maxmind.lookup(address)
        ip2_city = self.ip2location.lookup(address)
        agree = (mm_city is not None and ip2_city is not None
                 and mm_city == ip2_city)
        if agree:
            return GeolocationFinding(address, domain, mm_city, ip2_city,
                                      True, False, mm_city, None)
        # "In case of discrepancies, we rely on RIPE IPmap."
        trace = self.traceroute_engine.trace(vantage, address)
        verdict = self.ipmap.locate(address)
        return GeolocationFinding(address, domain, mm_city, ip2_city,
                                  False, True, verdict.city, trace)

    def transfer_allowed(self, provider: str) -> bool:
        """UK-US Data Bridge check for a provider."""
        return self.dpf.allows_uk_us_transfer(provider)
