"""MAC and IPv4 address types.

Small immutable value types used across the capture path, the DNS registry
and the geolocation substrate.  They parse from and render to the canonical
text forms and serialize to network byte order.
"""

from __future__ import annotations

import re
from typing import Iterator

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:-]){5}[0-9a-fA-F]{2}$")


class MacAddress:
    """48-bit Ethernet hardware address."""

    __slots__ = ("_value",)

    def __init__(self, value: int) -> None:
        if not 0 <= value < (1 << 48):
            raise ValueError(f"MAC out of range: {value:#x}")
        self._value = value

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` (or ``-`` separated)."""
        if not _MAC_RE.match(text):
            raise ValueError(f"invalid MAC address: {text!r}")
        clean = text.replace("-", ":")
        return cls(int(clean.replace(":", ""), 16))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MacAddress":
        if len(raw) != 6:
            raise ValueError(f"MAC needs 6 bytes, got {len(raw)}")
        return cls(int.from_bytes(raw, "big"))

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(6, "big")

    @property
    def value(self) -> int:
        return self._value

    @property
    def is_broadcast(self) -> bool:
        return self._value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        return bool((self._value >> 40) & 0x01)

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ":".join(f"{b:02x}" for b in raw)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and other._value == self._value

    def __hash__(self) -> int:
        return hash(("mac", self._value))


class Ipv4Address:
    """32-bit IPv4 address."""

    __slots__ = ("_value",)

    def __init__(self, value: int) -> None:
        if not 0 <= value < (1 << 32):
            raise ValueError(f"IPv4 out of range: {value:#x}")
        self._value = value

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
                raise ValueError(f"invalid IPv4 octet in {text!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"IPv4 octet out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Ipv4Address":
        if len(raw) != 4:
            raise ValueError(f"IPv4 needs 4 bytes, got {len(raw)}")
        return cls(int.from_bytes(raw, "big"))

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(4, "big")

    @property
    def value(self) -> int:
        return self._value

    @property
    def is_private(self) -> bool:
        """RFC 1918 private ranges."""
        v = self._value
        return (
            (v >> 24) == 10
            or (v >> 20) == (172 << 4) | 1  # 172.16/12
            or (v >> 16) == (192 << 8) | 168
        )

    @property
    def reverse_pointer(self) -> str:
        """The in-addr.arpa name used for PTR lookups."""
        octets = self.to_bytes()
        return ".".join(str(b) for b in reversed(octets)) + ".in-addr.arpa"

    def __add__(self, offset: int) -> "Ipv4Address":
        return Ipv4Address(self._value + offset)

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.to_bytes())

    def __repr__(self) -> str:
        return f"Ipv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ipv4Address) and other._value == self._value

    def __lt__(self, other: "Ipv4Address") -> bool:
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("ipv4", self._value))


class Ipv4Network:
    """CIDR block, e.g. ``Ipv4Network.parse("203.0.113.0/24")``."""

    __slots__ = ("network", "prefix")

    def __init__(self, network: Ipv4Address, prefix: int) -> None:
        if not 0 <= prefix <= 32:
            raise ValueError(f"invalid prefix length: {prefix}")
        mask = self._mask(prefix)
        if network.value & ~mask & 0xFFFFFFFF:
            raise ValueError(
                f"{network} has host bits set for /{prefix}")
        self.network = network
        self.prefix = prefix

    @staticmethod
    def _mask(prefix: int) -> int:
        return ((1 << prefix) - 1) << (32 - prefix) if prefix else 0

    @classmethod
    def parse(cls, text: str) -> "Ipv4Network":
        addr_text, __, prefix_text = text.partition("/")
        if not prefix_text:
            raise ValueError(f"missing prefix length: {text!r}")
        return cls(Ipv4Address.parse(addr_text), int(prefix_text))

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.prefix)

    def __contains__(self, addr: Ipv4Address) -> bool:
        mask = self._mask(self.prefix)
        return (addr.value & mask) == self.network.value

    def host(self, index: int) -> Ipv4Address:
        """The ``index``-th address inside the block (0 = network address)."""
        if not 0 <= index < self.num_addresses:
            raise ValueError(
                f"host index {index} outside /{self.prefix} block")
        return Ipv4Address(self.network.value + index)

    def hosts(self) -> Iterator[Ipv4Address]:
        """Iterate usable host addresses (skips network/broadcast on /30-)."""
        if self.prefix >= 31:
            start, stop = 0, self.num_addresses
        else:
            start, stop = 1, self.num_addresses - 1
        for index in range(start, stop):
            yield Ipv4Address(self.network.value + index)

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix}"

    def __repr__(self) -> str:
        return f"Ipv4Network('{self}')"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Ipv4Network)
                and other.network == self.network
                and other.prefix == self.prefix)

    def __hash__(self) -> int:
        return hash(("net4", self.network.value, self.prefix))


def mac_from_seed(seed: int, locally_administered: bool = True) -> MacAddress:
    """Derive a stable unicast MAC from an integer seed."""
    value = seed & ((1 << 48) - 1)
    value &= ~(1 << 40)  # clear multicast bit
    if locally_administered:
        value |= (1 << 41)
    return MacAddress(value)
