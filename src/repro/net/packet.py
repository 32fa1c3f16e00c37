"""Captured-packet model and the per-packet decoders.

A :class:`CapturedPacket` is what the access point's tap records: a
timestamp plus raw Ethernet bytes.  Two views re-parse those bytes:

* :func:`decode_packet` — the full decode: constructs
  Ethernet/IP/TCP/UDP/DNS objects, validating as it goes.
* :func:`lazy_decode` — precompiled fixed-offset header slicing that
  yields the flow key (addresses, ports, protocol) and lengths without
  building any per-layer object.  Full decode is deferred to the
  packets that need it (DNS payloads parse on first ``.dns`` access;
  ``.ip``/``.tcp``/``.udp``/``.eth`` delegate to a memoized full
  decode).

The analysis pipeline decodes whole captures column-wise
(:mod:`repro.net.columnar`); :class:`LazyPacket` is that decode's
per-row slow path and reference, and every columnar row exposes its
exact attribute surface.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from ..obs.metrics import get_registry
from .addresses import Ipv4Address, MacAddress
from .dns import DnsMessage
from .ethernet import ETHERTYPE_IPV4, EthernetFrame
from .ip import PROTO_TCP, PROTO_UDP, Ipv4Packet
from .tcp import TcpSegment
from .udp import UdpDatagram

DNS_PORT = 53


class CapturedPacket:
    """One packet on the wire: capture timestamp (ns) + raw frame bytes."""

    __slots__ = ("timestamp", "data")

    def __init__(self, timestamp: int, data: bytes) -> None:
        if timestamp < 0:
            raise ValueError("negative capture timestamp")
        self.timestamp = timestamp
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"CapturedPacket(t={self.timestamp}, {len(self.data)}B)"


class DecodedPacket:
    """Parsed view of a captured packet (as deep as the bytes allow)."""

    __slots__ = ("timestamp", "length", "eth", "ip", "tcp", "udp", "dns")

    def __init__(self, timestamp: int, length: int,
                 eth: EthernetFrame,
                 ip: Optional[Ipv4Packet] = None,
                 tcp: Optional[TcpSegment] = None,
                 udp: Optional[UdpDatagram] = None,
                 dns: Optional[DnsMessage] = None) -> None:
        self.timestamp = timestamp
        self.length = length
        self.eth = eth
        self.ip = ip
        self.tcp = tcp
        self.udp = udp
        self.dns = dns

    @property
    def src_ip(self) -> Optional[Ipv4Address]:
        return self.ip.src if self.ip else None

    @property
    def dst_ip(self) -> Optional[Ipv4Address]:
        return self.ip.dst if self.ip else None

    @property
    def src_port(self) -> Optional[int]:
        if self.tcp:
            return self.tcp.src_port
        if self.udp:
            return self.udp.src_port
        return None

    @property
    def dst_port(self) -> Optional[int]:
        if self.tcp:
            return self.tcp.dst_port
        if self.udp:
            return self.udp.dst_port
        return None

    @property
    def flow_proto(self) -> Optional[str]:
        """Flow-table protocol discriminator (None for non-IP)."""
        if self.tcp:
            return "tcp"
        if self.udp:
            return "udp"
        return "ip" if self.ip else None

    @property
    def transport_payload(self) -> bytes:
        if self.tcp:
            return self.tcp.payload
        if self.udp:
            return self.udp.payload
        return b""

    def __repr__(self) -> str:
        proto = "tcp" if self.tcp else ("udp" if self.udp else "eth")
        return (f"DecodedPacket(t={self.timestamp}, {proto}, "
                f"{self.src_ip}:{self.src_port} -> "
                f"{self.dst_ip}:{self.dst_port}, {self.length}B)")


def decode_packet(packet: CapturedPacket,
                  verify_checksums: bool = False) -> DecodedPacket:
    """Parse a captured packet as deep as its bytes allow.

    DNS parse failures are tolerated (the payload may be a non-DNS UDP
    protocol on port 53 in hostile captures); lower-layer failures raise.
    """
    data = packet.data
    if type(data) is not bytes:
        # Zero-copy loads hand us buffer views; the object layers slice
        # and ``.decode()`` freely, so materialize real bytes once here.
        data = bytes(data)
    eth = EthernetFrame.decode(data)
    decoded = DecodedPacket(packet.timestamp, len(data), eth)
    if eth.ethertype != ETHERTYPE_IPV4:
        return decoded
    ip = Ipv4Packet.decode(eth.payload, verify=verify_checksums)
    decoded.ip = ip
    if ip.protocol == PROTO_TCP:
        decoded.tcp = TcpSegment.decode(ip.payload)
    elif ip.protocol == PROTO_UDP:
        udp = UdpDatagram.decode(ip.payload)
        decoded.udp = udp
        if DNS_PORT in (udp.src_port, udp.dst_port):
            try:
                decoded.dns = DnsMessage.decode(udp.payload)
            except ValueError:
                decoded.dns = None
    return decoded


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
    UDP port-53 packets, and the object-layer attributes (``ip``,
    ``tcp``, ``udp``, ``eth``) fall back to a memoized
    :func:`decode_packet`, so a lazy capture is drop-in compatible with
    a fully decoded one — consumers just stay fast when they only touch
    the flow key.  Keeps the full decode's failure surface: a frame
    that claims IPv4 but is malformed or truncated (e.g. snaplen-clipped
    records) raises ``ValueError`` exactly like ``Ipv4Packet.decode``,
    rather than silently vanishing from the flow analysis.
    """

    __slots__ = ("timestamp", "data", "length", "src_ip", "dst_ip",
                 "src_port", "dst_port", "proto", "_ihl", "_dns", "_full")

    def __init__(self, timestamp: int, data: bytes,
                 intern: Optional[Dict[bytes, Ipv4Address]] = None) -> None:
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
        self._full: Optional[DecodedPacket] = None
        if len(data) < 14:
            raise ValueError(f"frame too short: {len(data)} bytes")
        if data[12:14] != b"\x08\x00":
            return
        # The frame claims IPv4: validate like the full decode so bad
        # frames (including snaplen-truncated records) fail loudly
        # instead of silently dropping out of the analysis.
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
        if intern is not None:
            src = intern.get(src_raw)
            if src is None:
                src = intern[src_raw] = Ipv4Address.from_bytes(src_raw)
            dst = intern.get(dst_raw)
            if dst is None:
                dst = intern[dst_raw] = Ipv4Address.from_bytes(dst_raw)
        else:
            src = Ipv4Address.from_bytes(src_raw)
            dst = Ipv4Address.from_bytes(dst_raw)
        self.src_ip = src
        self.dst_ip = dst
        if proto in _PROTO_NAMES and len(data) >= 14 + ihl + 4:
            self.src_port, self.dst_port = _PORTS.unpack_from(data, 14 + ihl)

    @property
    def flow_proto(self) -> Optional[str]:
        """Flow-table protocol discriminator (None for non-IP)."""
        if self.src_ip is None:
            return None
        return _PROTO_NAMES.get(self.proto, "ip")

    @property
    def full(self) -> DecodedPacket:
        """The fully decoded object view (memoized)."""
        if self._full is None:
            get_registry().inc("pipeline.full_decodes")
            self._full = decode_packet(
                CapturedPacket(self.timestamp, self.data))
        return self._full

    @property
    def eth(self) -> EthernetFrame:
        return self.full.eth

    @property
    def ip(self) -> Optional[Ipv4Packet]:
        return self.full.ip

    @property
    def tcp(self) -> Optional[TcpSegment]:
        return self.full.tcp

    @property
    def udp(self) -> Optional[UdpDatagram]:
        return self.full.udp

    @property
    def transport_payload(self) -> bytes:
        if self.proto == PROTO_TCP:
            transport = 14 + self._ihl
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
        """Parse DNS in place for UDP/53 packets, like the full
        decode."""
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


def lazy_decode(packet: CapturedPacket) -> LazyPacket:
    """Flow-level view of one captured packet."""
    return LazyPacket(packet.timestamp, packet.data)


def lazy_decode_all(packets: List[CapturedPacket]) -> List[LazyPacket]:
    """Flow-level views of a capture, in order.

    Shares one address intern table across the capture: the handful of
    distinct endpoints repeat across thousands of packets, so the flow
    key reuses one ``Ipv4Address`` per endpoint instead of allocating
    two per packet.
    """
    intern: Dict[bytes, Ipv4Address] = {}
    return [LazyPacket(p.timestamp, p.data, intern) for p in packets]


def build_udp_frame(src_mac: MacAddress, dst_mac: MacAddress,
                    src_ip: Ipv4Address, dst_ip: Ipv4Address,
                    src_port: int, dst_port: int, payload: bytes,
                    identification: int = 0, ttl: int = 64) -> bytes:
    """Compose UDP payload down to Ethernet bytes."""
    udp = UdpDatagram(src_port, dst_port, payload)
    ip = Ipv4Packet(src_ip, dst_ip, PROTO_UDP,
                    udp.encode(src_ip, dst_ip),
                    ttl=ttl, identification=identification)
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip.encode()) \
        .encode()


def build_tcp_frame(src_mac: MacAddress, dst_mac: MacAddress,
                    src_ip: Ipv4Address, dst_ip: Ipv4Address,
                    segment: TcpSegment,
                    identification: int = 0, ttl: int = 64) -> bytes:
    """Compose a TCP segment down to Ethernet bytes."""
    ip = Ipv4Packet(src_ip, dst_ip, PROTO_TCP,
                    segment.encode(src_ip, dst_ip),
                    ttl=ttl, identification=identification)
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip.encode()) \
        .encode()


def decode_all(packets: List[CapturedPacket]) -> List[DecodedPacket]:
    """Decode a capture in order."""
    return [decode_packet(p) for p in packets]
