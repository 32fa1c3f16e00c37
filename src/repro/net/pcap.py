"""libpcap file format: header layouts and the two record walks.

Captures are classic libpcap files (microsecond timestamps,
LINKTYPE_ETHERNET): :meth:`repro.net.capture.CaptureLog.encode` writes
them.  :func:`walk_records` collects every record-header offset in one
call, for the columnar decode (:mod:`repro.net.columnar`) and the
streaming tier's segment splitter (:mod:`repro.service.segments`);
:func:`iter_records` is the strict walk everything else uses.  They
open in Wireshark/tcpdump, which is how the codecs were validated
during development.
"""

from __future__ import annotations

import struct
from operator import sub
from typing import Iterator, List, NamedTuple, Tuple

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
    record walk (the columnar decode and the segment splitter collect
    the same offsets with :func:`walk_records` and check them
    afterwards): a truncated record header, a record longer than the
    snaplen allows and truncated record data raise :class:`PcapError`,
    checked in that order, once every record before the break has been
    yielded.  ``start`` skips an already-validated global header so
    capture *segments* (record stream only) can reuse the same walk.
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


#: Records the first probe of :func:`walk_records` walks in Python, and
#: the window its period test reads.
_SPEC_PROBE = 64
#: The longest probe: each probe or round that does not win doubles the
#: next probe up to here, so an aperiodic capture costs about a plain
#: loop.
_SPEC_PROBE_CAP = 1024
#: Longest repeating record-size pattern the speculator recognises.
_SPEC_MAX_PERIOD = 8
#: Cap on predicted records per speculation round (bounds temp arrays).
_SPEC_BATCH = 1 << 20


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

    #: Every record-header offset walked, ascending (int64).
    offsets: np.ndarray
    #: The offset just past the last walked record's data: the buffer
    #: length for a whole stream, more when the last record's data is
    #: cut, less when a record header is cut.
    cursor: int
    #: How many of the offsets vectorized rounds accepted.
    speculated: int


def _period(strides: List[int]) -> int:
    """Smallest period (1.._SPEC_MAX_PERIOD) of a stride window, or 0."""
    first = strides[0]
    for period in range(1, _SPEC_MAX_PERIOD + 1):
        if strides[period] == first and strides[period:] == strides[:-period]:
            return period
    return 0


def walk_records(buf, swapped: bool) -> RecordWalk:
    """Collect the record-header offsets of a pcap buffer.

    Walks from just past the global header (which the caller has
    checked) while a whole record header still fits in ``buf``, exactly
    as :func:`iter_records` does, but validates nothing: lengths are
    the caller's to check, and a cut header or cut data shows in the
    returned cursor.  Offsets past an implausible length are garbage,
    but they come after it, so a caller that checks lengths in walk
    order raises the same first error as :func:`iter_records`.

    The walk is sequential (each offset depends on the previous record's
    ``incl_len``), but a run of records that repeats a few sizes can be
    predicted.  So the walk alternates two modes.  A Python probe walks
    a number of records, then tests whether the last :data:`_SPEC_PROBE`
    record strides repeat with a period of at most
    :data:`_SPEC_MAX_PERIOD`.  If they do, a vectorized round tiles that
    pattern through a ``cumsum`` to the end of the buffer, gathers the
    actual ``incl_len`` at every predicted offset, and keeps exactly the
    prefix that matches: accepted offsets are byte-verified.  Household
    captures rarely repeat for long, so a round or a period test that
    does not win doubles the next probe (up to :data:`_SPEC_PROBE_CAP`
    records) and a miss costs about what a plain loop costs; a round
    that wins resets it.
    """
    unpack = struct.Struct(">8xI" if swapped else "<8xI").unpack_from
    header_size = RECORD_HEADER.size
    end = len(buf)
    limit = end - header_size
    words = None
    chunks: List[np.ndarray] = []
    pending: List[int] = []
    offset = GLOBAL_HEADER.size
    probe = _SPEC_PROBE
    speculated = 0
    while offset <= limit:
        append = pending.append
        for __ in range(probe):
            if offset > limit:
                break
            append(offset)
            offset += header_size + unpack(buf, offset)[0]
        if offset > limit:
            break
        edges = pending[-_SPEC_PROBE:]
        edges.append(offset)
        strides = list(map(sub, edges[1:], edges[:-1]))
        period = _period(strides)
        won = 0
        if period:
            pattern = strides[-period:]
            count = min(int((end - offset) * period / sum(pattern))
                        + period + 1, _SPEC_BATCH)
            step = np.resize(np.array(pattern, np.int64), count)
            ends = np.cumsum(step)
            ends += offset
            predicted = ends - step
            inside = int(np.searchsorted(predicted, limit, side="right"))
            if words is None:
                words = byte_windows(buf, 4).view(">u4" if swapped
                                                  else "<u4")[:, 0]
            incl = words[predicted[:inside] + 8]
            miss = np.flatnonzero(incl != step[:inside] - header_size)
            won = int(miss[0]) if miss.size else inside
        if won:
            chunks.append(np.array(pending, np.int64))
            pending = []
            chunks.append(predicted[:won])
            offset = int(ends[won - 1])
            speculated += won
        probe = _SPEC_PROBE if won >= _SPEC_PROBE \
            else min(2 * probe, _SPEC_PROBE_CAP)
    chunks.append(np.array(pending, np.int64))
    offsets = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return RecordWalk(offsets, offset, speculated)
