"""IPv4 packet codec (RFC 791, no options, no fragmentation support needed
for the testbed traffic, but the header fields are encoded faithfully
so the pcap round-trip is byte-exact)."""

from __future__ import annotations

from .addresses import Ipv4Address
from .checksum import internet_checksum

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

HEADER_LEN = 20


class Ipv4Packet:
    """IPv4 header + payload."""

    __slots__ = ("src", "dst", "protocol", "ttl", "identification",
                 "dscp", "flags_df", "payload")

    def __init__(self, src: Ipv4Address, dst: Ipv4Address, protocol: int,
                 payload: bytes, ttl: int = 64, identification: int = 0,
                 dscp: int = 0, flags_df: bool = True) -> None:
        if not 0 <= protocol <= 255:
            raise ValueError(f"protocol out of range: {protocol}")
        if not 0 < ttl <= 255:
            raise ValueError(f"ttl out of range: {ttl}")
        if not 0 <= identification <= 0xFFFF:
            raise ValueError(f"identification out of range: {identification}")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.ttl = ttl
        self.identification = identification
        self.dscp = dscp
        self.flags_df = flags_df
        self.payload = payload

    @property
    def total_length(self) -> int:
        return HEADER_LEN + len(self.payload)

    def encode(self) -> bytes:
        if self.total_length > 0xFFFF:
            raise ValueError(f"IPv4 packet too large: {self.total_length}")
        version_ihl = (4 << 4) | 5
        flags_fragment = (0x4000 if self.flags_df else 0)
        header = bytearray()
        header.append(version_ihl)
        header.append(self.dscp << 2)
        header += self.total_length.to_bytes(2, "big")
        header += self.identification.to_bytes(2, "big")
        header += flags_fragment.to_bytes(2, "big")
        header.append(self.ttl)
        header.append(self.protocol)
        header += b"\x00\x00"  # checksum placeholder
        header += self.src.to_bytes()
        header += self.dst.to_bytes()
        checksum = internet_checksum(bytes(header))
        header[10:12] = checksum.to_bytes(2, "big")
        return bytes(header) + self.payload

    def __repr__(self) -> str:
        return (f"Ipv4Packet({self.src} -> {self.dst}, proto={self.protocol},"
                f" ttl={self.ttl}, {len(self.payload)}B)")
