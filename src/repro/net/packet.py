"""The per-row packet view.

A :class:`LazyPacket` parses the fixed-offset header fields of one
captured frame (ethertype, IPv4 addresses and protocol, transport
ports) and nothing deeper until asked: its DNS payload parses on first
``.dns`` access.  It is the columnar decode's (:mod:`repro.net.columnar`)
per-row slow path and reference, every columnar row exposes its
flow-level attribute surface, and salvage probes each record with it.
"""

from __future__ import annotations

import struct
from typing import Optional

from .addresses import Ipv4Address
from .dns import DnsMessage
from .ip import PROTO_TCP, PROTO_UDP

DNS_PORT = 53

_PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}

# Fixed-offset header fields for LazyPacket, relative to frame start:
# Ethernet ethertype, then the IPv4 fields the flow key needs, then the
# transport ports (TCP and UDP both lead with source/destination port).
_IP_FIXED = struct.Struct("!HHxxBBxx4s4s")  # total_len, id.. from offset 16
_PORTS = struct.Struct("!HH")

_MISSING = object()


class LazyPacket:
    """Flow-level view of a captured packet without per-layer objects.

    Parses only the fixed-offset header fields (ethertype, IPv4
    addresses/protocol, transport ports) at construction; everything
    deeper is deferred.  ``.dns`` parses the DNS payload in place for
    UDP port-53 packets.  A frame that claims IPv4 but is malformed or
    truncated (e.g. snaplen-clipped records) raises ``ValueError``
    rather than silently vanishing from the flow analysis.
    """

    __slots__ = ("timestamp", "data", "length", "src_ip", "dst_ip",
                 "src_port", "dst_port", "proto", "_ihl", "_dns")

    def __init__(self, timestamp: int, data: bytes) -> None:
        self.timestamp = timestamp
        self.data = data
        self.length = len(data)
        self.src_ip: Optional[Ipv4Address] = None
        self.dst_ip: Optional[Ipv4Address] = None
        self.src_port: Optional[int] = None
        self.dst_port: Optional[int] = None
        self.proto: Optional[int] = None
        self._ihl = 0
        self._dns = _MISSING
        if len(data) < 14:
            raise ValueError(f"frame too short: {len(data)} bytes")
        if data[12:14] != b"\x08\x00":
            return
        # The frame claims IPv4: validate the header so bad frames
        # (including snaplen-truncated records) fail loudly instead of
        # silently dropping out of the analysis.
        if len(data) < 34:
            raise ValueError(f"IPv4 packet too short: {len(data) - 14} "
                             f"bytes")
        if data[14] & 0xF0 != 0x40:
            raise ValueError(f"not IPv4: version={data[14] >> 4}")
        ihl = (data[14] & 0x0F) * 4
        if ihl < 20 or len(data) - 14 < ihl:
            raise ValueError(f"bad IHL: {ihl}")
        (total_length, __, __, proto,
         src_raw, dst_raw) = _IP_FIXED.unpack_from(data, 16)
        if 14 + total_length > len(data):
            raise ValueError(
                f"truncated packet: header says {total_length}, "
                f"buffer has {len(data) - 14}")
        self._ihl = ihl
        self.proto = proto
        self.src_ip = Ipv4Address.from_bytes(src_raw)
        self.dst_ip = Ipv4Address.from_bytes(dst_raw)
        if proto in _PROTO_NAMES and len(data) >= 14 + ihl + 4:
            self.src_port, self.dst_port = _PORTS.unpack_from(data, 14 + ihl)

    @property
    def flow_proto(self) -> Optional[str]:
        """Flow-table protocol discriminator (None for non-IP)."""
        if self.src_ip is None:
            return None
        return _PROTO_NAMES.get(self.proto, "ip")

    @property
    def transport_payload(self) -> bytes:
        if self.proto == PROTO_TCP:
            transport = 14 + self._ihl
            if len(self.data) <= transport + 12:
                return b""  # cut before the data offset: no payload
            offset = transport + ((self.data[transport + 12] >> 4) * 4)
            total = int.from_bytes(self.data[16:18], "big")
            return self.data[offset:14 + total]
        if self.proto == PROTO_UDP:
            transport = 14 + self._ihl
            length = int.from_bytes(
                self.data[transport + 4:transport + 6], "big")
            return self.data[transport + 8:transport + length]
        return b""

    @property
    def dns(self) -> Optional[DnsMessage]:
        """Parse DNS in place for UDP/53 packets (``None`` when the
        payload is not a valid DNS message)."""
        if self._dns is _MISSING:
            self._dns = None
            if self.proto == PROTO_UDP \
                    and DNS_PORT in (self.src_port, self.dst_port):
                payload = self.transport_payload
                if type(payload) is not bytes:
                    payload = bytes(payload)
                try:
                    self._dns = DnsMessage.decode(payload)
                except ValueError:
                    self._dns = None
        return self._dns

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (f"LazyPacket(t={self.timestamp}, "
                f"{self.flow_proto or 'eth'}, "
                f"{self.src_ip}:{self.src_port} -> "
                f"{self.dst_ip}:{self.dst_port}, {self.length}B)")
