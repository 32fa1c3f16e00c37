"""The access point's capture log: one row per packet, one encode per capture.

While an experiment runs, the host stack appends one row per captured
packet: a timestamp, a flow-direction id, the IPv4 identification,
seq, ack, flags and the TCP payload.  Such segments all have the fixed
54-byte Ethernet + IPv4 + TCP layout (no options, window 0xFFFF, DSCP
0, DF set), so each flow direction needs its static header bytes and
their partial checksum sums only once.  Frames outside that layout
(SYN/SYN-ACK with the MSS option, DNS, screen-cast UDP) enter the log
already encoded by the object codec.

:meth:`CaptureLog.encode` turns the whole log into pcap bytes in one
numpy pass: a stable argsort by timestamp, header rows gathered from
the flow templates, the variable fields written through a big-endian
structured view, both checksums from the static sums plus vectorized
field and payload word sums, and one ``b"".join``.  The output is
byte-identical to :func:`repro.net.pcap.dump_bytes` over the
timestamp-sorted object-codec frames
(:func:`repro.net.packet.build_tcp_frame`);
``tests/test_capture_log.py`` pins that property-style.

Memory: every ``BLOCK`` rows the log compacts its row tuples into int64
columns and sums the words of their payloads, so neither the tuples
nor the sums' temporaries grow with the capture.  The log hangs off
the host stack, which sits in the simulation's reference cycles, so
:meth:`CaptureLog.encode` empties it first, and the encode's numpy
temporaries are freed before the final join.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .addresses import Ipv4Address, MacAddress
from .checksum import word_sum
from .ethernet import ETHERTYPE_IPV4
from .ip import PROTO_TCP
from .pcap import RECORD_HEADER, SNAPLEN, dump_bytes

HEADER_LEN = 54  # Ethernet (14) + IPv4 (20) + TCP without options (20)
#: Rows compacted at a time: bounds the row tuples held and the payload
#: sums' temporaries.
BLOCK = 256

_RECORD_LEN = RECORD_HEADER.size
_ROW_LEN = _RECORD_LEN + HEADER_LEN
_PCAP_HEADER = dump_bytes([])  # the global header alone
#: The flow id of a row that carries a whole encoded frame.  It indexes
#: the spare all-zero template the encode appends to the flow tables.
_RAW = -1

# A pcap record header followed by its frame's 54 header bytes, naming
# the fields the encode writes per row at their wire offsets.
_ROW = np.dtype({
    "names": ["ts_sec", "ts_usec", "incl_len", "orig_len", "ip_len",
              "ip_id", "ip_sum", "seq", "ack", "flags", "tcp_sum"],
    "formats": ["<u4", "<u4", "<u4", "<u4", ">u2", ">u2", ">u2", ">u4",
                ">u4", "u1", ">u2"],
    "offsets": [0, 4, 8, 12] + [_RECORD_LEN + offset for offset in
                                (16, 18, 24, 38, 42, 47, 50)],
    "itemsize": _ROW_LEN})

# Zero padding that brings a payload to a whole number of 32-bit words.
_PADS = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")

Row = Tuple[int, int, int, int, int, int, bytes]


class CaptureLog:
    """Rows of one capture, encoded into pcap bytes at the end.

    Rows are kept only while ``recording`` is set; the access point
    sets it for the length of the experiment.
    """

    def __init__(self) -> None:
        self.recording = False
        self._rows: List[Row] = []
        # Compacted rows: per block of BLOCK rows, a (7, BLOCK) int64
        # array of the row fields with the payload word sums last; and
        # every compacted row's payload or frame.
        self._blocks: List[np.ndarray] = []
        self._data: List[bytes] = []
        self._flows: Dict[Tuple, int] = {}
        self._templates: List[bytes] = []
        self._ip_sums: List[int] = []
        self._tcp_sums: List[int] = []

    def __len__(self) -> int:
        return len(self._data) + len(self._rows)

    def clear(self) -> None:
        self._rows, self._blocks, self._data = [], [], []

    def flow(self, src_mac: MacAddress, dst_mac: MacAddress,
             src_ip: Ipv4Address, dst_ip: Ipv4Address, src_port: int,
             dst_port: int, ttl: int) -> int:
        """The id of one TCP flow direction, for :meth:`tcp` rows."""
        key = (src_mac.value, dst_mac.value, src_ip.value, dst_ip.value,
               src_port, dst_port, ttl)
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = len(self._templates)
            src, dst = src_ip.to_bytes(), dst_ip.to_bytes()
            ports = src_port.to_bytes(2, "big") + dst_port.to_bytes(2, "big")
            # IPv4 length, id and checksum and TCP seq, ack, flags and
            # checksum stay zero; the encode writes them per row.
            ip_header = (b"\x45\x00\x00\x00\x00\x00\x40\x00"
                         + bytes([ttl, PROTO_TCP, 0, 0]) + src + dst)
            tcp_header = (ports + bytes(8) + b"\x50\x00\xff\xff"
                          + bytes(4))
            self._templates.append(
                dst_mac.to_bytes() + src_mac.to_bytes()
                + ETHERTYPE_IPV4.to_bytes(2, "big") + ip_header
                + tcp_header)
            self._ip_sums.append(word_sum(ip_header))
            # Pseudo header without the TCP length, which each row adds,
            # and the TCP header's static words.
            self._tcp_sums.append(word_sum(
                src + dst + bytes([0, PROTO_TCP]) + tcp_header))
        return flow

    def tcp(self, timestamp: int, flow: int, ip_id: int, seq: int,
            ack: int, flags: int, payload: bytes = b"") -> None:
        """One option-less segment of ``flow``.  ``seq`` and ``ack`` may
        exceed 32 bits; the encode masks them."""
        if self.recording:
            rows = self._rows
            rows.append((timestamp, flow, ip_id, seq, ack, flags, payload))
            if len(rows) == BLOCK:
                self._compact()

    def frame(self, timestamp: int, data: bytes) -> None:
        """One frame the object codec already encoded."""
        self.tcp(timestamp, _RAW, 0, 0, 0, 0, data)

    def _compact(self) -> None:
        """Move the row tuples into a block of int64 columns, with the
        word sums of their TCP payloads."""
        rows, self._rows = self._rows, []
        *columns, data = zip(*rows)
        fields = np.zeros((7, len(data)), np.int64)
        fields[:6] = columns
        sizes = np.fromiter(map(len, data), np.int64, len(data))
        carrying = np.flatnonzero((fields[1] != _RAW) & (sizes > 0))
        fields[6, carrying] = _payload_sums(
            [data[i] for i in carrying.tolist()], sizes[carrying])
        self._blocks.append(fields)
        self._data.extend(data)

    def encode(self) -> bytes:
        """The logged packets as pcap bytes in capture-time order, ties
        in logging order.  Empties the log."""
        if self._rows:
            self._compact()
        blocks, data = self._blocks, self._data
        self.clear()
        if not data:
            return _PCAP_HEADER
        fields = np.concatenate(blocks, axis=1)
        del blocks
        order = np.argsort(fields[0], kind="stable")
        fields = fields[:, order]
        data = [data[i] for i in order.tolist()]
        del order
        sizes = np.fromiter(map(len, data), np.int64, len(data))
        headers, tcp = self._headers(fields, data, sizes)
        del fields
        # Cut the header bytes only around rows that carry data, so a
        # run of pure ACKs stays one piece; a whole-frame row keeps
        # just its record header.
        carrying = np.flatnonzero(sizes)
        starts = carrying * _ROW_LEN
        ends = (starts + np.where(tcp[carrying], _ROW_LEN,
                                  _RECORD_LEN)).tolist() + [len(headers)]
        starts = [0] + (starts + _ROW_LEN).tolist()
        pieces = [None] * (2 * len(carrying) + 2)
        pieces[0] = _PCAP_HEADER
        pieces[1::2] = [headers[lo:hi] for lo, hi in zip(starts, ends)]
        pieces[2::2] = [data[i] for i in carrying.tolist()]
        del data, headers, starts, ends
        return b"".join(pieces)

    def _headers(self, fields: np.ndarray, data: List[bytes],
                 sizes: np.ndarray) -> Tuple[bytes, np.ndarray]:
        """Every row's record header and 54 frame header bytes, as one
        buffer of ``_ROW_LEN``-byte rows, and which rows are TCP rows
        (the others carry a whole frame and use only the record
        header).  Truncates ``data`` items past the snaplen in place."""
        ts, flow, ip_id, seq, ack, flags, payload_sum = fields
        tcp = flow != _RAW
        frame_len = sizes + np.where(tcp, HEADER_LEN, 0)
        templates = np.frombuffer(
            b"".join(self._templates) + bytes(HEADER_LEN),
            np.uint8).reshape(-1, HEADER_LEN)
        block = np.empty((len(data), _ROW_LEN), np.uint8)
        block[:, _RECORD_LEN:] = templates[flow]
        view = block.reshape(-1).view(_ROW)
        view["ts_sec"] = ts // 1_000_000_000
        view["ts_usec"] = ts % 1_000_000_000 // 1_000
        view["incl_len"] = np.minimum(frame_len, SNAPLEN)
        view["orig_len"] = frame_len
        tcp_len = 20 + sizes
        view["ip_len"] = 20 + tcp_len
        view["ip_id"] = ip_id
        view["ip_sum"] = _finish(np.array(self._ip_sums + [0])[flow]
                                 + 20 + tcp_len + ip_id)
        seq &= 0xFFFFFFFF
        ack &= 0xFFFFFFFF
        view["seq"] = seq
        view["ack"] = ack
        view["flags"] = flags
        view["tcp_sum"] = _finish(
            np.array(self._tcp_sums + [0])[flow] + tcp_len + (seq >> 16)
            + (seq & 0xFFFF) + (ack >> 16) + (ack & 0xFFFF) + flags
            + payload_sum)
        # PcapWriter stores the first SNAPLEN bytes of a longer frame.
        for i in np.flatnonzero(frame_len > SNAPLEN).tolist():
            data[i] = data[i][:SNAPLEN - HEADER_LEN * tcp[i]]
        return block.tobytes(), tcp


def _finish(total: np.ndarray) -> np.ndarray:
    """Internet checksums from positive word sums: the one's complement
    of each sum folded into 1..0xFFFF, as RFC 1071's end-around carry
    folds any buffer that is not all zero."""
    return 0xFFFE - (total - 1) % 0xFFFF


def _payload_sums(payloads: List[bytes], sizes: np.ndarray) -> np.ndarray:
    """Per nonempty payload, its big-endian 16-bit word sum mod 0xFFFF.

    Each payload is zero-padded to whole 32-bit words and summed as
    little-endian words: with ``2**16 ≡ 1 (mod 0xFFFF)`` that sum times
    256 is congruent to the big-endian 16-bit word sum, so no byte swap
    is needed.
    """
    pieces = [None] * (2 * len(payloads))
    pieces[0::2] = payloads
    pieces[1::2] = [_PADS[size & 3] for size in sizes.tolist()]
    words = np.frombuffer(b"".join(pieces), "<u4")
    count = (sizes + 3) >> 2
    sums = np.add.reduceat(words, np.cumsum(count) - count,
                           dtype=np.uint64)
    return sums % 0xFFFF * 256 % 0xFFFF
