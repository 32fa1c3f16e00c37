"""Synthetic public-IP allocation plan.

Gives every simulated server a stable public address inside a provider- and
city-specific block, plus a PTR record whose hostname embeds a geographic
hint (as real CDNs and clouds do).  The plan is the ground truth that the
GeoIP databases approximate — with deliberate errors — and that RIPE IPmap
recovers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..net.addresses import Ipv4Address, Ipv4Network
from .locations import CITIES, City

# Provider blocks: (provider, city_key) -> CIDR.  Addresses are drawn from
# ranges that look like real allocations but never collide across providers.
_BLOCKS: Dict[Tuple[str, str], str] = {
    ("alphonso", "amsterdam"): "185.28.4.0/24",
    ("alphonso", "new_york"): "64.95.112.0/24",
    ("alphonso", "san_jose"): "64.95.113.0/24",
    ("samsung", "london"): "34.89.0.0/24",
    ("samsung", "amsterdam"): "34.90.0.0/24",
    ("samsung", "new_york"): "52.20.0.0/24",
    ("samsung", "ashburn"): "52.21.0.0/24",
    ("samsung", "san_jose"): "35.235.0.0/24",
    ("samsung", "seoul"): "175.45.0.0/24",
    # Extension-vendor operators: the Roku-style third-party ACR SDK
    # ("teletrack") and the Vizio-style ad subsidiary ("inscape").
    ("teletrack", "amsterdam"): "146.75.48.0/24",
    ("teletrack", "san_jose"): "146.75.49.0/24",
    ("inscape", "new_york"): "23.21.76.0/24",
    ("inscape", "san_jose"): "23.21.77.0/24",
    ("bystander", "london"): "151.101.0.0/24",
    ("bystander", "amsterdam"): "151.101.1.0/24",
    ("bystander", "new_york"): "151.101.2.0/24",
    ("bystander", "san_jose"): "151.101.3.0/24",
    ("transit", "london"): "195.66.224.0/24",
    ("transit", "amsterdam"): "80.249.208.0/24",
    ("transit", "frankfurt"): "80.81.192.0/24",
    ("transit", "new_york"): "198.32.118.0/24",
    ("transit", "san_jose"): "206.223.116.0/24",
}

# Geo hint embedded in PTR hostnames per city.
_PTR_HINT: Dict[str, str] = {
    "london": "lhr",
    "amsterdam": "ams",
    "frankfurt": "fra",
    "new_york": "nyc",
    "ashburn": "iad",
    "san_jose": "sjc",
    "seoul": "icn",
}


class ServerRecord:
    """One allocated server: address, owner, location, PTR name."""

    __slots__ = ("address", "provider", "city", "ptr_name")

    def __init__(self, address: Ipv4Address, provider: str, city: City,
                 ptr_name: str) -> None:
        self.address = address
        self.provider = provider
        self.city = city
        self.ptr_name = ptr_name

    def __repr__(self) -> str:
        return (f"ServerRecord({self.address} [{self.provider}] "
                f"{self.city.name}, ptr={self.ptr_name})")


class IpSpace:
    """Allocator + ground-truth registry of public server addresses."""

    def __init__(self) -> None:
        self._cursors: Dict[Tuple[str, str], int] = {}
        self._servers: Dict[Ipv4Address, ServerRecord] = {}

    def block_for(self, provider: str, city_key: str) -> Ipv4Network:
        try:
            return Ipv4Network.parse(_BLOCKS[(provider, city_key)])
        except KeyError:
            raise KeyError(
                f"no block for provider={provider!r} city={city_key!r}"
            ) from None

    def allocate(self, provider: str, city_key: str,
                 ptr_label: Optional[str] = None) -> ServerRecord:
        """Allocate the next address in the provider's city block."""
        if city_key not in CITIES:
            raise KeyError(f"unknown city: {city_key!r}")
        block = self.block_for(provider, city_key)
        cursor = self._cursors.get((provider, city_key), 10)
        if cursor >= block.num_addresses - 1:
            raise RuntimeError(f"block exhausted: {block}")
        address = block.host(cursor)
        self._cursors[(provider, city_key)] = cursor + 1
        hint = _PTR_HINT[city_key]
        label = ptr_label or "edge"
        ptr_name = f"{label}-{hint}-{cursor}.{provider}.net"
        record = ServerRecord(address, provider, CITIES[city_key], ptr_name)
        self._servers[address] = record
        return record

    def lookup(self, address: Ipv4Address) -> Optional[ServerRecord]:
        """Ground-truth record for an address, if allocated."""
        return self._servers.get(address)

    def true_city(self, address: Ipv4Address) -> City:
        record = self._servers.get(address)
        if record is None:
            raise KeyError(f"address not allocated: {address}")
        return record.city

    def ptr_name(self, address: Ipv4Address) -> Optional[str]:
        record = self._servers.get(address)
        return record.ptr_name if record else None

    def all_servers(self) -> List[ServerRecord]:
        return list(self._servers.values())

    def __len__(self) -> int:
        return len(self._servers)
