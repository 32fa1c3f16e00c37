"""Authoritative DNS zone built from the domain registry.

Holds the A records for every catalog hostname and the PTR records for
every allocated server address (the reverse zone is what RIPE IPmap's
reverse-DNS engine consumes).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..net.addresses import Ipv4Address
from ..net.dns import DnsRecord
from .registry import DomainRegistry

DEFAULT_TTL = 300
ACR_TTL = 60  # vendor ACR endpoints use short TTLs for load balancing


class Zone:
    """Authoritative answers for the simulated Internet."""

    def __init__(self, registry: DomainRegistry) -> None:
        self.registry = registry
        self._a: Dict[str, List[DnsRecord]] = {}
        self._ptr: Dict[str, DnsRecord] = {}
        for name in registry.all_names():
            record = registry.record(name)
            server = registry.server(name)
            ttl = ACR_TTL if record.role.startswith("acr") else DEFAULT_TTL
            self._a[name] = [DnsRecord.a(name, server.address, ttl=ttl)]
            pointer = server.address.reverse_pointer
            self._ptr[pointer] = DnsRecord.ptr(
                pointer, server.ptr_name, ttl=DEFAULT_TTL)

    def lookup_a(self, name: str) -> Optional[List[DnsRecord]]:
        """A records for ``name``, or None for NXDOMAIN."""
        return self._a.get(name.lower())

    def lookup_ptr(self, address: Ipv4Address) -> Optional[DnsRecord]:
        """PTR record for an address, or None."""
        return self._ptr.get(address.reverse_pointer)

    def add_a(self, name: str, address: Ipv4Address,
              ttl: int = DEFAULT_TTL) -> None:
        """Register an extra A record (testbed-local services etc.)."""
        self._a.setdefault(name.lower(), []).append(
            DnsRecord.a(name, address, ttl=ttl))

    @property
    def names(self) -> List[str]:
        return sorted(self._a)

    def __len__(self) -> int:
        return len(self._a)
