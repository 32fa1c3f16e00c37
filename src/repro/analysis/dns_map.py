"""IP -> domain mapping recovered from captured DNS answers.

The paper's methodology: power-on is captured precisely because "the
majority of DNS requests are typically sent within the first few seconds
after device activation. This is essential to identify the domain names
associated with the contacted IP addresses."  This module is that
association, built purely from the capture.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..net.addresses import Ipv4Address
from ..net.columnar import ColumnarView
from ..net.dns import TYPE_A, TYPE_CNAME


class DnsMap:
    """Mapping from contacted IPs to the query names that produced them."""

    def __init__(self) -> None:
        self._ip_to_names: Dict[Ipv4Address, Set[str]] = {}
        self._name_to_ips: Dict[str, Set[Ipv4Address]] = {}
        self._cnames: Dict[str, str] = {}
        self.answers_seen = 0

    def observe(self, packet: ColumnarView) -> None:
        """Fold one capture row into the map (no-op unless DNS)."""
        message = packet.dns
        if message is None or not message.is_response:
            return
        # Resolve CNAME indirection back to the original query name.
        for record in message.answers:
            if record.rtype == TYPE_CNAME:
                self._cnames[record.target_name] = record.name
        for record in message.answers:
            if record.rtype != TYPE_A:
                continue
            name = self._canonical_name(record.name)
            self.answers_seen += 1
            self._ip_to_names.setdefault(record.address, set()).add(name)
            self._name_to_ips.setdefault(name, set()).add(record.address)

    def _canonical_name(self, name: str) -> str:
        seen = set()
        while name in self._cnames and name not in seen:
            seen.add(name)
            name = self._cnames[name]
        return name

    # -- queries ----------------------------------------------------------------

    def domains_for(self, address: Ipv4Address) -> List[str]:
        return sorted(self._ip_to_names.get(address, ()))

    def domain_for(self, address: Ipv4Address) -> Optional[str]:
        names = self._ip_to_names.get(address)
        if not names:
            return None
        return sorted(names)[0]

    def label(self, address: Ipv4Address) -> str:
        """Domain if known, else a stable unknown-IP label."""
        name = self.domain_for(address)
        return name if name is not None else f"unresolved:{address}"

    def __len__(self) -> int:
        return len(self._ip_to_names)

    def __repr__(self) -> str:
        return (f"DnsMap({len(self._ip_to_names)} addresses, "
                f"{len(self._name_to_ips)} names)")
