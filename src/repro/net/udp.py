"""UDP datagram codec (RFC 768) with checksum over the IPv4 pseudo header."""

from __future__ import annotations

from .addresses import Ipv4Address
from .checksum import internet_checksum, pseudo_header
from .ip import PROTO_UDP

HEADER_LEN = 8


class UdpDatagram:
    """UDP header + payload."""

    __slots__ = ("src_port", "dst_port", "payload")

    def __init__(self, src_port: int, dst_port: int, payload: bytes) -> None:
        for name, port in (("src_port", src_port), ("dst_port", dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload

    @property
    def length(self) -> int:
        return HEADER_LEN + len(self.payload)

    def encode(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> bytes:
        header = bytearray()
        header += self.src_port.to_bytes(2, "big")
        header += self.dst_port.to_bytes(2, "big")
        header += self.length.to_bytes(2, "big")
        header += b"\x00\x00"
        body = bytes(header) + self.payload
        pseudo = pseudo_header(src_ip.to_bytes(), dst_ip.to_bytes(),
                               PROTO_UDP, self.length)
        checksum = internet_checksum(pseudo + body)
        if checksum == 0:
            checksum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
        header[6:8] = checksum.to_bytes(2, "big")
        return bytes(header) + self.payload

    def __repr__(self) -> str:
        return (f"UdpDatagram({self.src_port} -> {self.dst_port}, "
                f"{len(self.payload)}B)")
