"""Five-tuple flow assembly and byte accounting.

The paper's Tables 2-5 count "kilobytes sent/received to/from ACR domains";
Figure 4/6 count packets per millisecond.  Flows are the unit both are
computed over.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .addresses import Ipv4Address
from .packet import DecodedPacket

FlowKey = Tuple[Ipv4Address, int, Ipv4Address, int, str]


def canonical_key(packet: DecodedPacket) -> Optional[FlowKey]:
    """Direction-independent flow key, lower endpoint first.

    Works on any packet view — only the flat ``src_ip``/``dst_ip``/
    port/``flow_proto`` attributes are read, so a
    :class:`~repro.net.packet.LazyPacket` or a columnar row never has
    to build its object layers just to be keyed.
    """
    proto = packet.flow_proto
    if proto is None:
        return None
    if packet.src_port is None or packet.dst_port is None:
        a = (packet.src_ip, 0)
        b = (packet.dst_ip, 0)
    else:
        a = (packet.src_ip, packet.src_port)
        b = (packet.dst_ip, packet.dst_port)
    if (a[0].value, a[1]) <= (b[0].value, b[1]):
        return (a[0], a[1], b[0], b[1], proto)
    return (b[0], b[1], a[0], a[1], proto)


class Flow:
    """Accumulated statistics for one five-tuple."""

    __slots__ = ("key", "first_seen", "last_seen", "packets_ab",
                 "packets_ba", "bytes_ab", "bytes_ba", "timestamps",
                 "byte_sizes")

    def __init__(self, key: FlowKey, first_seen: int) -> None:
        self.key = key
        self.first_seen = first_seen
        self.last_seen = first_seen
        self.packets_ab = 0
        self.packets_ba = 0
        self.bytes_ab = 0
        self.bytes_ba = 0
        self.timestamps: List[int] = []
        self.byte_sizes: List[int] = []

    @property
    def endpoint_a(self) -> Tuple[Ipv4Address, int]:
        return (self.key[0], self.key[1])

    @property
    def endpoint_b(self) -> Tuple[Ipv4Address, int]:
        return (self.key[2], self.key[3])

    @property
    def protocol(self) -> str:
        return self.key[4]

    @property
    def total_packets(self) -> int:
        return self.packets_ab + self.packets_ba

    @property
    def total_bytes(self) -> int:
        return self.bytes_ab + self.bytes_ba

    @property
    def duration(self) -> int:
        return self.last_seen - self.first_seen

    def add(self, packet: DecodedPacket) -> None:
        a_ip, a_port = self.endpoint_a
        from_a = (packet.src_ip == a_ip
                  and (packet.src_port or 0) == a_port)
        if from_a:
            self.packets_ab += 1
            self.bytes_ab += packet.length
        else:
            self.packets_ba += 1
            self.bytes_ba += packet.length
        self.last_seen = max(self.last_seen, packet.timestamp)
        self.timestamps.append(packet.timestamp)
        self.byte_sizes.append(packet.length)

    def __repr__(self) -> str:
        a_ip, a_port = self.endpoint_a
        b_ip, b_port = self.endpoint_b
        return (f"Flow({a_ip}:{a_port} <-> {b_ip}:{b_port} "
                f"[{self.protocol}], pkts={self.total_packets}, "
                f"bytes={self.total_bytes})")


class FlowTable:
    """Assemble decoded packets into flows."""

    def __init__(self) -> None:
        self._flows: Dict[FlowKey, Flow] = {}
        self.skipped = 0

    def add(self, packet: DecodedPacket) -> Optional[Flow]:
        key = canonical_key(packet)
        if key is None:
            self.skipped += 1
            return None
        flow = self._flows.get(key)
        if flow is None:
            flow = Flow(key, packet.timestamp)
            self._flows[key] = flow
        flow.add(packet)
        return flow

    def add_all(self, packets: Iterable[DecodedPacket]) -> None:
        for packet in packets:
            self.add(packet)

    @property
    def flows(self) -> List[Flow]:
        return list(self._flows.values())

    def flows_with_host(self, address: Ipv4Address) -> List[Flow]:
        """All flows where one endpoint is ``address``."""
        return [flow for flow in self._flows.values()
                if address in (flow.key[0], flow.key[2])]

    def __len__(self) -> int:
        return len(self._flows)
