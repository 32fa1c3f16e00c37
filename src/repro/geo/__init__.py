"""Geolocation substrate: ground-truth IP plan, GeoIP databases with
deliberate disagreements, Atlas-style probes, traceroute, RIPE-IPmap-style
multi-engine arbitration, and the DPF list."""

from .audit import GeolocationAudit, GeolocationFinding
from .dpf import DpfList, DpfParticipant
from .geoip import (GeoIpDatabase, build_ip2location, build_maxmind,
                    IP2LOCATION_ERRORS, MAXMIND_ERRORS)
from .ipspace import IpSpace, ServerRecord
from .locations import (AIRPORT_CODES, CITIES, City, haversine_km,
                        min_rtt_ms)
from .probes import AtlasProbe, ProbeMesh
from .ripe_ipmap import (EngineVerdict, LatencyEngine, LocationVerdict,
                         ReverseDnsEngine, RipeIpMap)
from .traceroute import Hop, TracerouteEngine, TracerouteResult

__all__ = [
    "AIRPORT_CODES",
    "AtlasProbe",
    "CITIES",
    "City",
    "DpfList",
    "DpfParticipant",
    "EngineVerdict",
    "GeoIpDatabase",
    "GeolocationAudit",
    "GeolocationFinding",
    "Hop",
    "IP2LOCATION_ERRORS",
    "IpSpace",
    "LatencyEngine",
    "LocationVerdict",
    "MAXMIND_ERRORS",
    "ProbeMesh",
    "ReverseDnsEngine",
    "RipeIpMap",
    "ServerRecord",
    "TracerouteEngine",
    "TracerouteResult",
    "build_ip2location",
    "build_maxmind",
    "haversine_km",
    "min_rtt_ms",
]
