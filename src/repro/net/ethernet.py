"""Ethernet II frame codec."""

from __future__ import annotations

from .addresses import MacAddress

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

HEADER_LEN = 14


class EthernetFrame:
    """An Ethernet II frame: dst, src, ethertype, payload."""

    __slots__ = ("dst", "src", "ethertype", "payload")

    def __init__(self, dst: MacAddress, src: MacAddress,
                 ethertype: int, payload: bytes) -> None:
        if not 0 <= ethertype <= 0xFFFF:
            raise ValueError(f"ethertype out of range: {ethertype:#x}")
        self.dst = dst
        self.src = src
        self.ethertype = ethertype
        self.payload = payload

    def encode(self) -> bytes:
        return (self.dst.to_bytes()
                + self.src.to_bytes()
                + self.ethertype.to_bytes(2, "big")
                + self.payload)

    def __len__(self) -> int:
        return HEADER_LEN + len(self.payload)

    def __repr__(self) -> str:
        return (f"EthernetFrame({self.src} -> {self.dst}, "
                f"type={self.ethertype:#06x}, {len(self.payload)}B)")
