"""Physical locations used across the geolocation substrate.

A small gazetteer of the cities that matter to the paper's findings:
LG's UK endpoints resolve to Amsterdam, Samsung's UK endpoints to London,
Amsterdam and New York, and every US endpoint to the United States.
"""

from __future__ import annotations

import math
from typing import Dict


class City:
    """A named location with coordinates and country."""

    __slots__ = ("name", "country", "latitude", "longitude", "region_key")

    def __init__(self, name: str, country: str, latitude: float,
                 longitude: float, region_key: str) -> None:
        self.name = name
        self.country = country
        self.latitude = latitude
        self.longitude = longitude
        # Key into the latency model's region tables.
        self.region_key = region_key

    def __repr__(self) -> str:
        return f"City({self.name}, {self.country})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, City) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("city", self.name))


CITIES: Dict[str, City] = {
    "london": City("London", "GB", 51.5074, -0.1278, "london"),
    "amsterdam": City("Amsterdam", "NL", 52.3676, 4.9041, "amsterdam"),
    "frankfurt": City("Frankfurt", "DE", 50.1109, 8.6821, "frankfurt"),
    "new_york": City("New York", "US", 40.7128, -74.0060, "new_york"),
    "ashburn": City("Ashburn", "US", 39.0438, -77.4874, "us_east"),
    "san_jose": City("San Jose", "US", 37.3382, -121.8863, "us_west"),
    "seoul": City("Seoul", "KR", 37.5665, 126.9780, "seoul"),
}

# IATA-style identifiers embedded in router/edge PTR records; the RIPE
# IPmap reverse-DNS engine keys on these.
AIRPORT_CODES: Dict[str, str] = {
    "lhr": "london",
    "lon": "london",
    "ams": "amsterdam",
    "fra": "frankfurt",
    "nyc": "new_york",
    "jfk": "new_york",
    "iad": "ashburn",
    "sjc": "san_jose",
    "icn": "seoul",
}

EARTH_RADIUS_KM = 6371.0
# Effective propagation speed in fibre, accounting for non-great-circle
# routing: ~200,000 km/s * ~0.7 path directness.
EFFECTIVE_KM_PER_MS = 140.0


def haversine_km(a: City, b: City) -> float:
    """Great-circle distance between two cities in kilometres."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (math.sin(dlat / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def min_rtt_ms(a: City, b: City) -> float:
    """Physically minimal RTT between two cities (speed-of-light bound)."""
    return 2.0 * haversine_km(a, b) / EFFECTIVE_KM_PER_MS
