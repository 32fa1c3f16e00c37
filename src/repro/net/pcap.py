"""libpcap file format: header layouts and the strict record walk.

Captures are classic libpcap files (microsecond timestamps,
LINKTYPE_ETHERNET): :meth:`repro.net.capture.CaptureLog.encode` writes
them, the columnar decode (:mod:`repro.net.columnar`) reads them, and
:func:`iter_records` walks their record headers for everything else.
They open in Wireshark/tcpdump, which is how the codecs were validated
during development.
"""

from __future__ import annotations

import struct
from typing import Iterator, Tuple

MAGIC_USEC = 0xA1B2C3D4
MAGIC_USEC_SWAPPED = 0xD4C3B2A1
VERSION_MAJOR = 2
VERSION_MINOR = 4
LINKTYPE_ETHERNET = 1

#: The snaplen every capture declares.
SNAPLEN = 65535

GLOBAL_HEADER = struct.Struct("<IHHiIII")
RECORD_HEADER = struct.Struct("<IIII")

_NS_PER_US = 1_000
_NS_PER_S = 1_000_000_000


class PcapError(ValueError):
    """Raised on malformed pcap input."""


def parse_global_header(buf) -> Tuple[bool, int, int]:
    """Validate a pcap global header in a buffer.

    Returns ``(swapped, snaplen, linktype)``.  A truncated header, a bad
    magic and a non-Ethernet linktype all raise :class:`PcapError`.
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
    index into) the one buffer they already hold.  This is the strict
    record walk (the columnar decode walks the same headers with its
    own vectorized speculation): a truncated record header, a record
    longer than the snaplen allows and truncated record data raise
    :class:`PcapError`, checked in that order, once every record
    before the break has been yielded.  ``start`` skips an
    already-validated global header so capture *segments* (record
    stream only) can reuse the same walk.
    """
    if start == 0:
        swapped, snaplen, __ = parse_global_header(buf)
        offset = GLOBAL_HEADER.size
    else:
        swapped, snaplen, offset = False, SNAPLEN, start
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
