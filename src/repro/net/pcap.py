"""libpcap file format: header layouts and the one record walk.

Captures are classic libpcap files (microsecond timestamps,
LINKTYPE_ETHERNET): :meth:`repro.net.capture.CaptureLog.encode` writes
them, and they open in Wireshark/tcpdump, which is how the codecs were
validated during development.  :func:`walk_records` is the only code
that frames records: it returns every record offset and header up to
the stream's first break, and that break's :class:`PcapError`.  The
columnar decode (:mod:`repro.net.columnar`), validation
(:mod:`repro.testbed.validation`), the streaming tier's segment
splitter (:mod:`repro.service.segments`), salvage and the pcap faults
(:mod:`repro.faults.inject`) all take their records from it.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

MAGIC_USEC = 0xA1B2C3D4
MAGIC_USEC_SWAPPED = 0xD4C3B2A1
VERSION_MAJOR = 2
VERSION_MINOR = 4
LINKTYPE_ETHERNET = 1

#: The snaplen every capture declares.
SNAPLEN = 65535

GLOBAL_HEADER = struct.Struct("<IHHiIII")
RECORD_HEADER = struct.Struct("<IIII")


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


def byte_windows(buf, width: int) -> np.ndarray:
    """Every ``width``-byte window of ``buf``, as rows of a read-only
    view: row ``i`` is ``buf[i:i + width]``.

    Indexing it with an offset array gathers one whole window per
    offset in one numpy call, and viewing the rows as 32-bit words
    reads header fields at any byte offset, aligned or not.
    """
    return np.ndarray((len(buf) - width + 1, width), np.uint8, buf, 0,
                      (1, 1))


class RecordWalk(NamedTuple):
    """What :func:`walk_records` found in one record stream."""

    #: The header offset of every record a strict reading accepts,
    #: ascending (int64).
    offsets: np.ndarray
    #: Those records' first three header words, one row each (uint32,
    #: in the stream's byte order): seconds, microseconds and the
    #: captured length.
    headers: np.ndarray
    #: Where the walk stopped: the buffer's length for a whole stream,
    #: else the header offset of the first rejected record, whose index
    #: is ``len(offsets)``.
    cursor: int
    #: Why that record was rejected, or ``None`` for a whole stream.
    error: Optional[PcapError]


def walk_records(buf) -> RecordWalk:
    """Walk the records of an in-memory pcap buffer up to its first
    break.

    Checks the global header (raising :class:`PcapError` as
    :func:`parse_global_header` does), then reads each record header in
    turn without copying a frame byte.  The first record that a strict
    reading rejects ends the walk, checked in this order: a record
    header cut by the buffer's end, a captured length larger than the
    snaplen allows, record data cut by the buffer's end.  Its error is
    returned, not raised, so each caller decides what a break means:
    the columnar decode and the segment splitter refuse the stream,
    validation fails a check, salvage keeps the records before it.
    """
    swapped, snaplen, __ = parse_global_header(buf)
    order = ">" if swapped else "<"
    unpack = struct.Struct(order + "8xI").unpack_from
    header_size = RECORD_HEADER.size
    longest = snaplen + 65536
    end = len(buf)
    limit = end - header_size
    offsets: List[int] = []
    append = offsets.append
    offset = GLOBAL_HEADER.size
    error = None
    while offset <= limit:
        incl = unpack(buf, offset)[0]
        if incl > longest:
            error = PcapError(f"implausible record length: {incl}")
            break
        append(offset)
        offset += header_size + incl
    else:
        # No whole record header is left: the last record's data, or
        # the header after it, may be cut by the buffer's end.
        if offset > end:
            offset = offsets.pop()
            error = PcapError("truncated pcap record data")
        elif offset < end:
            error = PcapError("truncated pcap record header")
    starts = np.fromiter(offsets, np.int64, len(offsets))
    headers = byte_windows(buf, 12)[starts].view(order + "u4")
    return RecordWalk(starts, headers, offset, error)
