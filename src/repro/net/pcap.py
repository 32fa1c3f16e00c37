"""libpcap file format reader/writer.

The testbed writes real ``.pcap`` files (classic libpcap, microsecond
timestamps, LINKTYPE_ETHERNET) and the analysis pipeline reads them back.
Files produced here open in Wireshark/tcpdump, which is how we validated the
codecs during development.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Iterable, Iterator, List, Tuple, Union

from .packet import CapturedPacket

MAGIC_USEC = 0xA1B2C3D4
MAGIC_USEC_SWAPPED = 0xD4C3B2A1
VERSION_MAJOR = 2
VERSION_MINOR = 4
LINKTYPE_ETHERNET = 1

#: The snaplen a PcapWriter declares unless told otherwise.
SNAPLEN = 65535

GLOBAL_HEADER = struct.Struct("<IHHiIII")
RECORD_HEADER = struct.Struct("<IIII")

_NS_PER_US = 1_000
_NS_PER_S = 1_000_000_000


class PcapError(ValueError):
    """Raised on malformed pcap input."""


class PcapWriter:
    """Stream packets into a pcap file object."""

    def __init__(self, fileobj: BinaryIO, snaplen: int = SNAPLEN) -> None:
        if snaplen <= 0:
            raise ValueError(f"snaplen must be positive: {snaplen}")
        self._file = fileobj
        self._snaplen = snaplen
        self._count = 0
        self._file.write(GLOBAL_HEADER.pack(
            MAGIC_USEC, VERSION_MAJOR, VERSION_MINOR,
            0, 0, snaplen, LINKTYPE_ETHERNET))

    @property
    def count(self) -> int:
        return self._count

    @property
    def snaplen(self) -> int:
        return self._snaplen

    def write(self, packet: CapturedPacket) -> None:
        ts_sec, ts_ns = divmod(packet.timestamp, _NS_PER_S)
        ts_usec = ts_ns // _NS_PER_US
        orig_len = len(packet.data)
        # Records honor the declared snaplen the way a real capture
        # engine would: truncate the stored bytes, preserve orig_len.
        incl_len = min(orig_len, self._snaplen)
        self._file.write(RECORD_HEADER.pack(ts_sec, ts_usec, incl_len,
                                            orig_len))
        self._file.write(packet.data[:incl_len]
                         if incl_len < orig_len else packet.data)
        self._count += 1

    def write_all(self, packets: Iterable[CapturedPacket]) -> int:
        before = self._count
        for packet in packets:
            self.write(packet)
        return self._count - before


class PcapReader:
    """Iterate packets from a pcap file object."""

    def __init__(self, fileobj: BinaryIO) -> None:
        self._file = fileobj
        header = fileobj.read(GLOBAL_HEADER.size)
        if len(header) < GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == MAGIC_USEC:
            self._swapped = False
        elif magic == MAGIC_USEC_SWAPPED:
            self._swapped = True
        else:
            raise PcapError(f"bad pcap magic: {magic:#010x}")
        fmt = ">IHHiIII" if self._swapped else "<IHHiIII"
        (__, major, minor, __, __, self.snaplen,
         self.linktype) = struct.unpack(fmt, header)
        self.version = (major, minor)
        if self.linktype != LINKTYPE_ETHERNET:
            raise PcapError(f"unsupported linktype: {self.linktype}")

    def __iter__(self) -> Iterator[CapturedPacket]:
        fmt = ">IIII" if self._swapped else "<IIII"
        header_size = RECORD_HEADER.size
        while True:
            header = self._file.read(header_size)
            if not header:
                return
            if len(header) < header_size:
                raise PcapError("truncated pcap record header")
            ts_sec, ts_usec, incl_len, orig_len = struct.unpack(fmt, header)
            if incl_len > self.snaplen + 65536:
                raise PcapError(f"implausible record length: {incl_len}")
            data = self._file.read(incl_len)
            if len(data) < incl_len:
                raise PcapError("truncated pcap record data")
            timestamp = ts_sec * _NS_PER_S + ts_usec * _NS_PER_US
            yield CapturedPacket(timestamp, data)


def parse_global_header(buf) -> Tuple[bool, int, int]:
    """Validate a pcap global header in a buffer.

    Returns ``(swapped, snaplen, linktype)`` with the same failure
    surface as :class:`PcapReader` — truncated header, bad magic and
    non-Ethernet linktypes all raise :class:`PcapError`.
    """
    if len(buf) < GLOBAL_HEADER.size:
        raise PcapError("truncated pcap global header")
    magic = buf[3] << 24 | buf[2] << 16 | buf[1] << 8 | buf[0]
    if magic == MAGIC_USEC:
        swapped = False
    elif magic == MAGIC_USEC_SWAPPED:
        swapped = True
    else:
        raise PcapError(f"bad pcap magic: {magic:#010x}")
    fmt = ">IHHiIII" if swapped else "<IHHiIII"
    (__, __, __, __, __, snaplen,
     linktype) = struct.unpack_from(fmt, buf, 0)
    if linktype != LINKTYPE_ETHERNET:
        raise PcapError(f"unsupported linktype: {linktype}")
    return swapped, snaplen, linktype


def iter_records(buf, start: int = 0
                 ) -> Iterator[Tuple[int, int, int, int]]:
    """Walk the record headers of an in-memory pcap buffer.

    Yields ``(timestamp_ns, frame_offset, incl_len, orig_len)`` per
    record without copying a single frame byte — consumers slice (or
    index into) the one buffer they already hold.  This is the
    mmap-friendly walk under :func:`load_bytes` (the columnar decode
    walks the same headers with its own vectorized speculation).
    ``start`` skips an already-validated global header so capture
    *segments* (record stream only) can reuse the same walk.
    """
    if start == 0:
        swapped, snaplen, __ = parse_global_header(buf)
        offset = GLOBAL_HEADER.size
    else:
        swapped, snaplen, offset = False, 65535, start
    header = (">IIII" if swapped else "<IIII")
    unpack = struct.Struct(header).unpack_from
    header_size = RECORD_HEADER.size
    end = len(buf)
    while offset < end:
        if end - offset < header_size:
            raise PcapError("truncated pcap record header")
        ts_sec, ts_usec, incl_len, orig_len = unpack(buf, offset)
        if incl_len > snaplen + 65536:
            raise PcapError(f"implausible record length: {incl_len}")
        offset += header_size
        if end - offset < incl_len:
            raise PcapError("truncated pcap record data")
        yield (ts_sec * _NS_PER_S + ts_usec * _NS_PER_US,
               offset, incl_len, orig_len)
        offset += incl_len


def dump_bytes(packets: Iterable[CapturedPacket]) -> bytes:
    """Serialize a packet list to pcap bytes in memory."""
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    writer.write_all(packets)
    return buffer.getvalue()


def load_bytes(raw: Union[bytes, bytearray]) -> List[CapturedPacket]:
    """Parse pcap bytes into a packet list.

    Zero-copy: every packet's ``data`` is an offset/length view over the
    single input buffer rather than a freshly sliced ``bytes`` — the
    decoders normalize to real ``bytes`` only at the object-decode
    boundaries that need them.
    """
    buf = memoryview(raw)
    return [CapturedPacket(ts, buf[offset:offset + incl_len])
            for ts, offset, incl_len, __ in iter_records(buf)]


def save_file(path: str, packets: Iterable[CapturedPacket]) -> int:
    """Write packets to ``path``; returns the packet count."""
    with open(path, "wb") as fileobj:
        writer = PcapWriter(fileobj)
        return writer.write_all(packets)


def load_file(path: str) -> List[CapturedPacket]:
    """Read all packets from ``path``."""
    with open(path, "rb") as fileobj:
        return list(PcapReader(fileobj))
