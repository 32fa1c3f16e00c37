"""TCP segment codec (RFC 793 header, no options beyond MSS on SYN).

Only the wire format lives here; connection behaviour (handshake, ordering,
acking) is in :mod:`repro.net.stack`.
"""

from __future__ import annotations

from .addresses import Ipv4Address
from .checksum import internet_checksum, pseudo_header
from .ip import PROTO_TCP

HEADER_LEN = 20

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10


def flag_names(flags: int) -> str:
    """Human-readable flag string, e.g. ``"SYN|ACK"``."""
    names = []
    for bit, name in ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"),
                      (FLAG_PSH, "PSH"), (FLAG_FIN, "FIN"),
                      (FLAG_RST, "RST")):
        if flags & bit:
            names.append(name)
    return "|".join(names) if names else "none"


class TcpSegment:
    """TCP header + payload."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window",
                 "payload", "mss_option")

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: int, payload: bytes = b"", window: int = 0xFFFF,
                 mss_option: int = 0) -> None:
        for name, port in (("src_port", src_port), ("dst_port", dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.window = window
        self.payload = payload
        self.mss_option = mss_option

    def _options(self) -> bytes:
        if not self.mss_option:
            return b""
        return bytes([2, 4]) + self.mss_option.to_bytes(2, "big")

    def encode(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> bytes:
        options = self._options()
        data_offset = (HEADER_LEN + len(options)) // 4
        header = bytearray()
        header += self.src_port.to_bytes(2, "big")
        header += self.dst_port.to_bytes(2, "big")
        header += self.seq.to_bytes(4, "big")
        header += self.ack.to_bytes(4, "big")
        header.append(data_offset << 4)
        header.append(self.flags)
        header += self.window.to_bytes(2, "big")
        header += b"\x00\x00"  # checksum placeholder
        header += b"\x00\x00"  # urgent pointer
        header += options
        body = bytes(header) + self.payload
        pseudo = pseudo_header(src_ip.to_bytes(), dst_ip.to_bytes(),
                               PROTO_TCP, len(body))
        checksum = internet_checksum(pseudo + body)
        header[16:18] = checksum.to_bytes(2, "big")
        return bytes(header) + self.payload

    def __repr__(self) -> str:
        return (f"TcpSegment({self.src_port} -> {self.dst_port}, "
                f"[{flag_names(self.flags)}], seq={self.seq}, "
                f"ack={self.ack}, {len(self.payload)}B)")
