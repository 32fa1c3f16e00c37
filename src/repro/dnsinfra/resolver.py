"""Recursive resolver and on-device stub cache.

The access point runs the recursive resolver (as Mon(IoT)r setups do, so
every TV lookup is observable on the capture).  The TV runs a stub cache in
front of it: repeated lookups inside a record's TTL produce no network
traffic, which is why the paper sees the DNS burst concentrated "within the
first few seconds after device activation".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..net.addresses import Ipv4Address
from ..net.dns import DnsRecord
from .zones import Zone


class ResolveResult:
    """Outcome of one lookup."""

    __slots__ = ("name", "records", "from_cache", "nxdomain")

    def __init__(self, name: str, records: List[DnsRecord],
                 from_cache: bool, nxdomain: bool) -> None:
        self.name = name
        self.records = records
        self.from_cache = from_cache
        self.nxdomain = nxdomain

    @property
    def addresses(self) -> List[Ipv4Address]:
        return [r.address for r in self.records if r.rtype == 1]

    def __repr__(self) -> str:
        state = "NXDOMAIN" if self.nxdomain else \
            f"{len(self.records)} records"
        origin = "cache" if self.from_cache else "authoritative"
        return f"ResolveResult({self.name!r}, {state}, {origin})"


class RecursiveResolver:
    """The AP-side resolver with a TTL-respecting cache."""

    def __init__(self, zone: Zone) -> None:
        self.zone = zone
        self._cache: Dict[str, Tuple[int, List[DnsRecord]]] = {}
        self.queries = 0
        self.cache_hits = 0

    def resolve(self, name: str, now_ns: int) -> ResolveResult:
        """Resolve ``name`` at virtual time ``now_ns``."""
        key = name.lower()
        self.queries += 1
        cached = self._cache.get(key)
        if cached is not None:
            expires, records = cached
            if now_ns < expires:
                self.cache_hits += 1
                return ResolveResult(key, records, True, not records)
            del self._cache[key]
        records = self.zone.lookup_a(key)
        if records is None:
            # Negative caching, 60 s.
            self._cache[key] = (now_ns + 60 * 10 ** 9, [])
            return ResolveResult(key, [], False, True)
        ttl_ns = min(r.ttl for r in records) * 10 ** 9
        self._cache[key] = (now_ns + ttl_ns, records)
        return ResolveResult(key, records, False, False)

    def resolve_ptr(self, address: Ipv4Address,
                    now_ns: int) -> Optional[str]:
        """Reverse lookup; no caching needed at simulation scale."""
        record = self.zone.lookup_ptr(address)
        return record.target_name if record else None


class StubCache:
    """The TV-side stub resolver cache.

    ``lookup`` returns the cached addresses if fresh; otherwise the caller
    must perform a network query (observable!) and then ``store`` the
    answer.
    """

    def __init__(self) -> None:
        self._cache: Dict[str, Tuple[int, List[DnsRecord]]] = {}

    def lookup(self, name: str, now_ns: int) -> Optional[List[DnsRecord]]:
        entry = self._cache.get(name.lower())
        if entry is None:
            return None
        expires, records = entry
        if now_ns >= expires:
            del self._cache[name.lower()]
            return None
        return records

    def store(self, name: str, records: List[DnsRecord],
              now_ns: int) -> None:
        if not records:
            return
        ttl_ns = min(r.ttl for r in records) * 10 ** 9
        self._cache[name.lower()] = (now_ns + ttl_ns, records)

    def flush(self) -> None:
        """Power cycles clear the cache — hence the boot-time DNS burst."""
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
