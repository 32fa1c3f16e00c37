"""Columnar decode: a whole capture as parallel field columns.

The audit's one decode path: collect every record offset with the
shared record walk (:func:`~repro.net.pcap.walk_records`, which the
streaming tier's segment splitter runs too), then gather every
fixed-offset header field — timestamps, lengths, src/dst IPv4
addresses, ports, protocol, the UDP/53 DNS flag — into parallel numpy
columns, in two numpy gathers.  Zero per-packet Python objects are
built; consumers scan columns directly (flow keys included:
:meth:`ColumnarCapture.flow_keys`), and only the packets whose
*payload* is actually read (DNS answers) are decoded further, via
:class:`ColumnarView`, a row adapter with ``LazyPacket``'s flow-level
attributes (addresses, ports, protocol, length, transport payload,
DNS) but none of its object layers.

The reference for every row is :class:`~repro.net.packet.LazyPacket`,
and the equivalence suite holds the two identical:

* the build checks the walked offsets and raises the same
  :class:`~repro.net.pcap.PcapError` surface as the strict walk
  :func:`~repro.net.pcap.iter_records`, and raises it before any
  frame-level error, exactly like that walk run to the end before any
  row decodes;
* malformed or clipped frames raise the same ``ValueError`` messages in
  the same (capture) order as ``LazyPacket`` — any row the vectorized
  gather can't prove well-formed (short frames, IPv4 options,
  claimed-but-truncated IPv4) is re-run through a real ``LazyPacket``,
  so the slow path *is* the reference implementation.

The vectorized fast path covers plain ``IHL=20`` IPv4 frames of at
least 38 bytes — every byte the gathers touch is then inside the
record's own data, so no mask can misread a neighbouring record.

A capture that is done growing can give its frame bytes back
(:meth:`ColumnarCapture.release_frames`): every column query, flow keys
and the per-row transport payload length (:meth:`ColumnarCapture.
payload_lengths`) keep answering from the columns, and only the frame
bytes themselves are gone.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from ..obs.metrics import get_registry
from .addresses import Ipv4Address
from .dns import DnsMessage
from .ip import PROTO_TCP, PROTO_UDP
from .packet import (_PROTO_NAMES, DNS_PORT, LazyPacket,
                     slice_transport_payload)
from .pcap import RECORD_HEADER, PcapError, byte_windows, \
    parse_global_header, walk_records

_NS_PER_US = 1_000
_NS_PER_S = 1_000_000_000

#: A direction-independent flow key: ``(low address, low port, high
#: address, high port, protocol class)``, every field a Python int.
FlowKey = Tuple[int, int, int, int, int]

#: The protocol class every IP protocol but TCP and UDP shares (TCP and
#: UDP keep their protocol numbers), as ``flow_proto``'s ``"ip"`` does.
OTHER_IP_CLASS = 0

_ENDPOINT_BITS = 48
_ENDPOINT_MASK = (1 << _ENDPOINT_BITS) - 1

_MISSING = object()


class FramesReleasedError(RuntimeError):
    """A frame was read (or a segment added) after
    :meth:`ColumnarCapture.release_frames` dropped the capture bytes."""


#: Column name -> dtype.  ``off`` is the frame's byte offset inside its
#: segment buffer; ``src``/``dst`` are big-endian IPv4 values (0 for
#: non-IP rows); ``sport``/``dport``/``proto`` use -1 for "absent",
#: mirroring ``LazyPacket``'s ``None``.
COLUMN_DTYPES = (
    ("ts", np.int64),
    ("off", np.int64),
    ("length", np.int64),
    ("src", np.uint32),
    ("dst", np.uint32),
    ("sport", np.int32),
    ("dport", np.int32),
    ("proto", np.int16),
    ("ihl", np.int16),
    ("dns", np.uint8),
)

COLUMN_NAMES = tuple(name for name, __ in COLUMN_DTYPES)

# The vectorized gathers read frame bytes up to offset 37 (transport
# ports); only rows with at least this many captured bytes take the
# fast path, so every gather stays inside its own record.
_FAST_MIN_FRAME = 38


def _build_columns(buf: memoryview) -> Tuple[Dict[str, np.ndarray], int]:
    """Decode one pcap buffer into columns (the decode hot path).

    Also returns how many records the walk's vectorized rounds accepted.
    """
    swapped, snaplen, __ = parse_global_header(buf)
    record, cursor, speculated = walk_records(buf, swapped)
    end = len(buf)
    count = len(record)
    # Each record header's first three words: seconds, microseconds and
    # the captured length.
    header = byte_windows(buf, 12)[record].view(
        ">u4" if swapped else "<u4")
    incl = header[:, 2].astype(np.int64)

    # Record-level failures surface before any frame-level one, exactly
    # like a full iter_records walk ahead of any row decode.
    implausible = incl > snaplen + 65536
    if implausible.any():
        first = int(implausible.argmax())
        raise PcapError(f"implausible record length: {int(incl[first])}")
    if cursor > end:
        raise PcapError("truncated pcap record data")
    if cursor < end:
        raise PcapError("truncated pcap record header")
    if not count:
        return _empty_columns(), speculated

    ts = (header[:, 0].astype(np.int64) * _NS_PER_S
          + header[:, 1].astype(np.int64) * _NS_PER_US)
    frame = record + RECORD_HEADER.size
    # Clip gather bases so short tail rows can't read past the buffer;
    # clipped rows never take the fast path (incl < _FAST_MIN_FRAME).
    safe = np.minimum(frame, end - _FAST_MIN_FRAME)
    # Frame bytes 10-37 as seven big-endian words: the ethertype ends
    # word 0, then IPv4 version/IHL and total length, protocol, source,
    # destination, and the two transport ports.
    words = byte_windows(buf, _FAST_MIN_FRAME - 10)[safe + 10].view(">u4")
    ethertype = words[:, 0] & 0xFFFF
    version_ihl = words[:, 1] >> 24
    total_len = (words[:, 1] & 0xFFFF).astype(np.int64)
    proto8 = (words[:, 3] >> 16 & 0xFF).astype(np.int16)
    sport16 = (words[:, 6] >> 16).astype(np.int32)
    dport16 = (words[:, 6] & 0xFFFF).astype(np.int32)

    sized = incl >= _FAST_MIN_FRAME
    fast = (sized & (ethertype == 0x0800) & (version_ihl == 0x45)
            & (total_len + 14 <= incl))
    plain = sized & (ethertype != 0x0800)

    src_col = np.where(fast, words[:, 4], np.uint32(0))
    dst_col = np.where(fast, words[:, 5], np.uint32(0))
    proto_col = np.where(fast, proto8, -1).astype(np.int16)
    ihl_col = np.where(fast, 20, 0).astype(np.int16)
    ports_ok = fast & ((proto8 == PROTO_TCP) | (proto8 == PROTO_UDP))
    sport_col = np.where(ports_ok, sport16, -1).astype(np.int32)
    dport_col = np.where(ports_ok, dport16, -1).astype(np.int32)
    dns_col = (ports_ok & (proto8 == PROTO_UDP)
               & ((sport16 == DNS_PORT)
                  | (dport16 == DNS_PORT))).astype(np.uint8)

    # Everything the gathers can't prove well-formed goes through a real
    # LazyPacket: identical error surface (and ordering — indices
    # ascend), identical field semantics for the odd shapes (non-IP,
    # IPv4 options, 14-37 byte frames).
    for i in np.nonzero(~(fast | plain))[0].tolist():
        start = int(record[i]) + RECORD_HEADER.size
        row = LazyPacket(0, bytes(buf[start:start + int(incl[i])]))
        if row.src_ip is not None:
            src_col[i] = row.src_ip.value
            dst_col[i] = row.dst_ip.value
            proto_col[i] = row.proto
            ihl_col[i] = row._ihl
            if row.src_port is not None:
                sport_col[i] = row.src_port
                dport_col[i] = row.dst_port
                if row.proto == PROTO_UDP and DNS_PORT in (row.src_port,
                                                           row.dst_port):
                    dns_col[i] = 1

    return {
        "ts": ts,
        "off": frame,
        "length": incl,
        "src": src_col,
        "dst": dst_col,
        "sport": sport_col,
        "dport": dport_col,
        "proto": proto_col,
        "ihl": ihl_col,
        "dns": dns_col,
    }, speculated


def _empty_columns() -> Dict[str, np.ndarray]:
    return {name: np.empty(0, dtype)
            for name, dtype in COLUMN_DTYPES}


def _payload_lengths(data: np.ndarray, off: np.ndarray, length: np.ndarray,
                     proto: np.ndarray, ihl: np.ndarray) -> np.ndarray:
    """``len(ColumnarView.transport_payload)`` for rows of one segment.

    Mirrors :func:`~repro.net.packet.slice_transport_payload`, the one
    payload rule both row types call, over whole columns.  The fast
    path proves only bytes 0-37 inside a record, while the UDP length
    sits at bytes 38-39 and the TCP data offset at byte 46, so gathers
    are clamped to the buffer and a value read past a row's own frame
    never reaches its length: a UDP length field cut short puts the
    payload start past the frame too (an empty slice either way), and a
    TCP row cut before its data-offset byte has no locatable payload,
    so it reads 0 (its view returns ``b""``).
    """
    last = len(data) - 1
    transport = 14 + ihl.astype(np.int64)

    def byte_at(rel) -> np.ndarray:
        return data[np.minimum(off + rel, last)].astype(np.int64)

    tcp = (proto == PROTO_TCP) & (transport + 12 < length)
    total = byte_at(16) << 8 | byte_at(17)
    start = transport + (byte_at(transport + 12) >> 4) * 4
    tcp_len = np.minimum(14 + total, length) - np.minimum(start, length)

    field = byte_at(transport + 4) << 8 | byte_at(transport + 5)
    udp_len = (np.minimum(transport + field, length)
               - np.minimum(transport + 8, length))

    lengths = np.where(tcp, tcp_len,
                       np.where(proto == PROTO_UDP, udp_len, 0))
    return np.maximum(lengths, 0)


class ColumnarCapture:
    """A capture decoded into parallel columns, one row per packet.

    Supports multi-segment growth (:meth:`extend_pcap_bytes` — the
    streaming service feeds pcap-framed segments).  Iterating or
    indexing yields :class:`ColumnarView` rows.  Once
    :meth:`release_frames` has run, the capture holds columns only.
    """

    __slots__ = ("ts", "off", "length", "src", "dst", "sport", "dport",
                 "proto", "ihl", "dns", "_seg_starts", "_seg_bufs",
                 "_intern", "_payload_len")

    def __init__(self) -> None:
        for name, dtype in COLUMN_DTYPES:
            setattr(self, name, np.empty(0, dtype))
        self._seg_starts: List[int] = []
        #: The segments' capture bytes; ``None`` once released.
        self._seg_bufs: Optional[List[memoryview]] = []
        self._intern: Dict[int, Ipv4Address] = {}
        self._payload_len: Optional[np.ndarray] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_pcap_bytes(cls, raw: Union[bytes, bytearray, memoryview]
                        ) -> "ColumnarCapture":
        capture = cls()
        capture.extend_pcap_bytes(raw)
        return capture

    # -- growth -----------------------------------------------------------------

    def extend_pcap_bytes(self, raw: Union[bytes, bytearray, memoryview]
                          ) -> Tuple[int, int]:
        """Decode one pcap-framed segment; returns its [start, end) row
        range.  A segment that fails to decode raises before any
        column changes."""
        if self._seg_bufs is None:
            raise FramesReleasedError(
                "cannot extend a capture whose frames were released")
        buf = raw if isinstance(raw, memoryview) else memoryview(raw)
        registry = get_registry()
        with registry.span("decode.columnar.build"):
            columns, speculated = _build_columns(buf)
        start = len(self.ts)
        count = len(columns["ts"])
        self._seg_starts.append(start)
        self._seg_bufs.append(buf)
        self._payload_len = None
        if start == 0:
            for name in COLUMN_NAMES:
                setattr(self, name, columns[name])
        else:
            for name in COLUMN_NAMES:
                setattr(self, name,
                        np.concatenate((getattr(self, name),
                                        columns[name])))
        if registry.enabled:
            registry.inc("decode.columnar.packets", count)
            registry.inc("decode.columnar.walk_speculated", speculated)
        return start, start + count

    # -- row access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [ColumnarView(self, i)
                    for i in range(*index.indices(len(self.ts)))]
        if index < 0:
            index += len(self.ts)
        return ColumnarView(self, index)

    def __iter__(self) -> Iterator["ColumnarView"]:
        for index in range(len(self.ts)):
            yield ColumnarView(self, index)

    def view(self, index: int) -> "ColumnarView":
        return ColumnarView(self, index)

    def frame(self, index: int) -> memoryview:
        """The raw frame bytes of one row (a view, not a copy).

        Raises :class:`FramesReleasedError` after :meth:`release_frames`.
        """
        if self._seg_bufs is None:
            raise FramesReleasedError(
                f"frame {index} was released with the capture bytes")
        seg = bisect_right(self._seg_starts, index) - 1
        offset = int(self.off[index])
        return self._seg_bufs[seg][offset:offset + int(self.length[index])]

    def address(self, value: int) -> Ipv4Address:
        """Interned address object for a u32 column value."""
        addr = self._intern.get(value)
        if addr is None:
            addr = self._intern[value] = Ipv4Address(value)
        return addr

    def payload_lengths(self) -> np.ndarray:
        """Per row, ``len(view.transport_payload)`` (int64).

        Computed from the frames on first call, column-wide, and kept:
        it is what :meth:`release_frames` leaves behind of the frames.
        """
        if self._payload_len is None:
            parts = []
            bounds = self._seg_starts + [len(self.ts)]
            for seg, buf in enumerate(self._seg_bufs):
                lo, hi = bounds[seg], bounds[seg + 1]
                if lo == hi:
                    continue
                parts.append(_payload_lengths(
                    np.frombuffer(buf, dtype=np.uint8), self.off[lo:hi],
                    self.length[lo:hi], self.proto[lo:hi],
                    self.ihl[lo:hi]))
            self._payload_len = np.concatenate(parts) if parts \
                else np.empty(0, np.int64)
        return self._payload_len

    def release_frames(self) -> None:
        """Drop the capture bytes, keeping every column.

        Fills :meth:`payload_lengths` first.  Afterwards the column
        queries answer as before, while :meth:`frame` (so a view's
        ``data``, ``transport_payload`` and an undecoded ``dns``) and
        :meth:`extend_pcap_bytes` raise :class:`FramesReleasedError`.
        """
        if self._seg_bufs is not None:
            self.payload_lengths()
            self._seg_bufs = None

    # -- capture-level queries ---------------------------------------------------

    def flow_keys(self, start: int, end: int) -> Set[FlowKey]:
        """The distinct flow keys of rows [start, end).

        Non-IP rows have no key.  An endpoint is its u32 address and
        port, both ports 0 when the row has none; the lower endpoint
        comes first, so both directions of a flow share one key.  The
        protocol class is 6 (TCP), 17 (UDP) or :data:`OTHER_IP_CLASS`.
        """
        proto = self.proto[start:end]
        ip = proto >= 0
        proto = proto[ip].astype(np.int64)
        sport = self.sport[start:end][ip]
        dport = self.dport[start:end][ip]
        portless = (sport < 0) | (dport < 0)
        # An endpoint packs into 48 bits (address << 16 | port), so the
        # numeric order of packed endpoints is (address, port) order.
        a = (self.src[start:end][ip].astype(np.int64) << 16
             | np.where(portless, 0, sport))
        b = (self.dst[start:end][ip].astype(np.int64) << 16
             | np.where(portless, 0, dport))
        klass = np.where((proto == PROTO_TCP) | (proto == PROTO_UDP),
                         proto, OTHER_IP_CLASS)
        # A set of packed (class and low endpoint, high endpoint) pairs
        # dedups in C; only the distinct pairs are unpacked.
        pairs = set(zip((klass << _ENDPOINT_BITS
                         | np.minimum(a, b)).tolist(),
                        np.maximum(a, b).tolist()))
        return {((low & _ENDPOINT_MASK) >> 16, low & 0xFFFF, high >> 16,
                 high & 0xFFFF, low >> _ENDPOINT_BITS)
                for low, high in pairs}

    def infer_tv_ip(self) -> Ipv4Address:
        """The device under audit: the most talkative private address,
        ties broken by first appearance in src-then-dst packet order."""
        count = len(self.ts)
        interleaved = np.empty(2 * count, np.uint32)
        interleaved[0::2] = self.src
        interleaved[1::2] = self.dst
        is_ip = self.proto >= 0
        valid = np.empty(2 * count, bool)
        valid[0::2] = is_ip
        valid[1::2] = is_ip
        private = (((interleaved >> np.uint32(24)) == 10)
                   | ((interleaved >> np.uint32(20)) == (172 << 4) | 1)
                   | ((interleaved >> np.uint32(16)) == (192 << 8) | 168))
        candidates = interleaved[valid & private]
        if candidates.size == 0:
            raise ValueError("no private addresses in capture")
        values, counts = np.unique(candidates, return_counts=True)
        tied = values[counts == counts.max()]
        if tied.size == 1:
            return self.address(int(tied[0]))
        first_seen = {int(v): int(np.argmax(candidates == v))
                      for v in tied}
        return self.address(min(first_seen, key=first_seen.get))

    def __repr__(self) -> str:
        return (f"ColumnarCapture({len(self.ts)} packets, "
                f"{len(self._seg_starts)} segments)")


class ColumnarView:
    """One capture row with ``LazyPacket``'s flow-level attributes.

    Built only where a consumer genuinely needs a per-packet object —
    DNS payload decodes and query results — never during the column
    scans themselves.
    """

    __slots__ = ("_capture", "_index", "_dns")

    def __init__(self, capture: ColumnarCapture, index: int) -> None:
        self._capture = capture
        self._index = index
        self._dns = _MISSING

    @property
    def timestamp(self) -> int:
        return int(self._capture.ts[self._index])

    @property
    def data(self) -> memoryview:
        return self._capture.frame(self._index)

    @property
    def length(self) -> int:
        return int(self._capture.length[self._index])

    @property
    def src_ip(self) -> Optional[Ipv4Address]:
        capture, index = self._capture, self._index
        if capture.proto[index] < 0:
            return None
        return capture.address(int(capture.src[index]))

    @property
    def dst_ip(self) -> Optional[Ipv4Address]:
        capture, index = self._capture, self._index
        if capture.proto[index] < 0:
            return None
        return capture.address(int(capture.dst[index]))

    @property
    def src_port(self) -> Optional[int]:
        value = int(self._capture.sport[self._index])
        return None if value < 0 else value

    @property
    def dst_port(self) -> Optional[int]:
        value = int(self._capture.dport[self._index])
        return None if value < 0 else value

    @property
    def proto(self) -> Optional[int]:
        value = int(self._capture.proto[self._index])
        return None if value < 0 else value

    @property
    def flow_proto(self) -> Optional[str]:
        value = int(self._capture.proto[self._index])
        if value < 0:
            return None
        return _PROTO_NAMES.get(value, "ip")

    @property
    def transport_payload(self):
        capture, index = self._capture, self._index
        return slice_transport_payload(self.data, int(capture.proto[index]),
                                       int(capture.ihl[index]))

    @property
    def dns(self) -> Optional[DnsMessage]:
        if self._dns is _MISSING:
            self._dns = None
            capture, index = self._capture, self._index
            if capture.dns[index]:
                registry = get_registry()
                if registry.enabled:
                    registry.inc("decode.columnar.dns_decodes")
                try:
                    self._dns = DnsMessage.decode(
                        bytes(self.transport_payload))
                except ValueError:
                    self._dns = None
        return self._dns

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (f"ColumnarView(t={self.timestamp}, "
                f"{self.flow_proto or 'eth'}, "
                f"{self.src_ip}:{self.src_port} -> "
                f"{self.dst_ip}:{self.dst_port}, {self.length}B)")


_EMPTY_INDICES = np.empty(0, np.int64)


class ColumnarSlice:
    """An ordered subset of capture rows (a query result).

    Behaves like a list of packets — ``len``/iteration/indexing/``==``
    — while keeping the underlying index array addressable so consumers
    like the CDF builder can stay columnar."""

    __slots__ = ("capture", "indices")

    def __init__(self, capture: ColumnarCapture,
                 indices: Optional[np.ndarray] = None) -> None:
        self.capture = capture
        self.indices = _EMPTY_INDICES if indices is None else indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnarSlice(self.capture, self.indices[index])
        return ColumnarView(self.capture, int(self.indices[index]))

    def __iter__(self) -> Iterator[ColumnarView]:
        capture = self.capture
        for index in self.indices.tolist():
            yield ColumnarView(capture, index)

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnarSlice):
            return (self.capture is other.capture
                    and np.array_equal(self.indices, other.indices))
        if isinstance(other, (list, tuple)):
            if len(other) != len(self.indices):
                return False
            return all(mine is theirs or mine == theirs
                       for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"ColumnarSlice({len(self.indices)} packets)"
