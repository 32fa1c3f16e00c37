"""The access point's capture log: one row per packet, one encode per capture.

While an experiment runs, the host stack appends one row per captured
packet: a timestamp, a flow-direction id, the IPv4 identification,
seq, ack, the TCP header word ``(data offset << 12) | flags`` and the
payload.  Every frame has one of two fixed layouts, Ethernet + IPv4 (no
options, DSCP 0, DF set) + TCP with window 0xFFFF (54 bytes) or + UDP
(42 bytes), so each flow direction needs its static header bytes and
their partial checksum sums only once.  A SYN row is a TCP row with
data offset 6 whose first four payload bytes are the MSS option, so
the length and checksum sums cover the option like any payload.  A UDP
row writes the UDP length and checksum where TCP's seq sits, sends a
zero checksum as 0xFFFF (RFC 768), and keeps 42 header bytes.

:meth:`CaptureLog.encode` turns the whole log into pcap bytes in one
numpy pass: a stable argsort by timestamp, header rows gathered from
the flow templates, the variable fields written through a big-endian
structured view, both checksums from the static sums plus vectorized
field and payload word sums, and one ``b"".join``.  The output is
byte-identical to building each frame through the per-layer object
codecs and writing the timestamp-sorted frames one pcap record at a
time; ``tests/test_capture_log.py`` pins that property-style against
those codecs and the record writer in ``tests/packet_oracle.py``.

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
from .ip import PROTO_TCP, PROTO_UDP
from .pcap import (GLOBAL_HEADER, LINKTYPE_ETHERNET, MAGIC_USEC,
                   RECORD_HEADER, SNAPLEN, VERSION_MAJOR, VERSION_MINOR)
from .tcp import MSS

#: Header bytes in front of the payload: Ethernet (14) + IPv4 (20) +
#: TCP without options (20), or + UDP (8).
TCP_HEADER_LEN = 54
UDP_HEADER_LEN = 42
#: Rows compacted at a time: bounds the row tuples held and the payload
#: sums' temporaries.
BLOCK = 256

_RECORD_LEN = RECORD_HEADER.size
_ROW_LEN = _RECORD_LEN + TCP_HEADER_LEN
_PCAP_HEADER = GLOBAL_HEADER.pack(MAGIC_USEC, VERSION_MAJOR, VERSION_MINOR,
                                  0, 0, SNAPLEN, LINKTYPE_ETHERNET)
# TCP header words: data offset 5 (no options) or 6 (the MSS option).
_OPTIONLESS = 5 << 12
_WITH_MSS = 6 << 12
_MSS_OPTION = bytes([2, 4]) + MSS.to_bytes(2, "big")

# A pcap record header followed by its frame's 54 header bytes, naming
# the fields the encode writes per row at their wire offsets.  A UDP
# row's length and checksum fill ``seq``; its other TCP fields land in
# bytes the cut drops.
_ROW = np.dtype({
    "names": ["ts_sec", "ts_usec", "incl_len", "orig_len", "ip_len",
              "ip_id", "ip_sum", "seq", "ack", "word", "tcp_sum"],
    "formats": ["<u4", "<u4", "<u4", "<u4", ">u2", ">u2", ">u2", ">u4",
                ">u4", ">u2", ">u2"],
    "offsets": [0, 4, 8, 12] + [_RECORD_LEN + offset for offset in
                                (16, 18, 24, 38, 42, 46, 50)],
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
        # every compacted row's payload.
        self._blocks: List[np.ndarray] = []
        self._data: List[bytes] = []
        self._flows: Dict[Tuple, int] = {}
        self._templates: List[bytes] = []
        self._ip_sums: List[int] = []
        self._transport_sums: List[int] = []

    def __len__(self) -> int:
        return len(self._data) + len(self._rows)

    def clear(self) -> None:
        self._rows, self._blocks, self._data = [], [], []

    def flow(self, src_mac: MacAddress, dst_mac: MacAddress,
             src_ip: Ipv4Address, dst_ip: Ipv4Address, src_port: int,
             dst_port: int, ttl: int, protocol: int = PROTO_TCP) -> int:
        """The id of one flow direction: TCP for :meth:`tcp` and
        :meth:`syn` rows, or UDP (``PROTO_UDP``) for :meth:`udp` rows."""
        key = (src_mac.value, dst_mac.value, src_ip.value, dst_ip.value,
               src_port, dst_port, ttl, protocol)
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = len(self._templates)
            src, dst = src_ip.to_bytes(), dst_ip.to_bytes()
            ports = src_port.to_bytes(2, "big") + dst_port.to_bytes(2, "big")
            # IPv4 length, id and checksum, TCP seq, ack, header word
            # and checksum, and UDP length and checksum stay zero; the
            # encode writes them per row.
            ip_header = (b"\x45\x00\x00\x00\x00\x00\x40\x00"
                         + bytes([ttl, protocol, 0, 0]) + src + dst)
            transport = ports + (bytes(4) if protocol == PROTO_UDP else
                                 bytes(10) + b"\xff\xff" + bytes(4))
            self._templates.append(
                (dst_mac.to_bytes() + src_mac.to_bytes()
                 + ETHERTYPE_IPV4.to_bytes(2, "big") + ip_header
                 + transport).ljust(TCP_HEADER_LEN, b"\x00"))
            self._ip_sums.append(word_sum(ip_header))
            # The pseudo header without its length, which each row
            # adds, and the transport header's static words.
            self._transport_sums.append(word_sum(
                src + dst + bytes([0, protocol]) + transport))
        return flow

    def tcp(self, timestamp: int, flow: int, ip_id: int, seq: int,
            ack: int, flags: int, payload: bytes = b"") -> None:
        """One option-less segment of ``flow``.  ``seq`` and ``ack`` may
        exceed 32 bits; the encode masks them."""
        if self.recording:
            self._append((timestamp, flow, ip_id, seq, ack,
                          _OPTIONLESS | flags, payload))

    def syn(self, timestamp: int, flow: int, ip_id: int, seq: int,
            ack: int, flags: int) -> None:
        """A SYN or SYN-ACK of ``flow``, announcing the MSS option."""
        if self.recording:
            self._append((timestamp, flow, ip_id, seq, ack,
                          _WITH_MSS | flags, _MSS_OPTION))

    def udp(self, timestamp: int, flow: int, ip_id: int,
            payload: bytes) -> None:
        """One datagram of UDP ``flow``."""
        if self.recording:
            self._append((timestamp, flow, ip_id, 0, 0, 0, payload))

    def _append(self, row: Row) -> None:
        rows = self._rows
        rows.append(row)
        if len(rows) == BLOCK:
            self._compact()

    def _compact(self) -> None:
        """Move the row tuples into a block of int64 columns, with the
        word sums of their payloads."""
        rows, self._rows = self._rows, []
        *columns, data = zip(*rows)
        fields = np.zeros((7, len(data)), np.int64)
        fields[:6] = columns
        sizes = np.fromiter(map(len, data), np.int64, len(data))
        carrying = np.flatnonzero(sizes)
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
        headers, header_len = self._headers(fields, data, sizes)
        del fields
        # Cut the header bytes only around rows that carry data or
        # keep fewer than 54 header bytes (UDP), so a run of pure ACKs
        # stays one piece.
        cut = np.flatnonzero((sizes > 0) | (header_len != TCP_HEADER_LEN))
        starts = cut * _ROW_LEN
        ends = (starts + _RECORD_LEN + header_len[cut]).tolist() \
            + [len(headers)]
        starts = [0] + (starts + _ROW_LEN).tolist()
        pieces = [None] * (2 * len(cut) + 2)
        pieces[0] = _PCAP_HEADER
        pieces[1::2] = [headers[lo:hi] for lo, hi in zip(starts, ends)]
        pieces[2::2] = [data[i] for i in cut.tolist()]
        del data, headers, starts, ends
        return b"".join(pieces)

    def _headers(self, fields: np.ndarray, data: List[bytes],
                 sizes: np.ndarray) -> Tuple[bytes, np.ndarray]:
        """Every row's record header and 54 frame header bytes, as one
        buffer of ``_ROW_LEN``-byte rows, and how many of those header
        bytes each row keeps.  Truncates ``data`` items past the
        snaplen in place."""
        ts, flow, ip_id, seq, ack, word, payload_sum = fields
        templates = np.frombuffer(b"".join(self._templates),
                                  np.uint8).reshape(-1, TCP_HEADER_LEN)
        block = np.empty((len(data), _ROW_LEN), np.uint8)
        block[:, _RECORD_LEN:] = templates[flow]
        # Frame byte 23 is the IPv4 protocol.
        udp = block[:, _RECORD_LEN + 23] == PROTO_UDP
        header_len = np.where(udp, UDP_HEADER_LEN, TCP_HEADER_LEN)
        frame_len = header_len + sizes
        view = block.reshape(-1).view(_ROW)
        view["ts_sec"] = ts // 1_000_000_000
        view["ts_usec"] = ts % 1_000_000_000 // 1_000
        view["incl_len"] = np.minimum(frame_len, SNAPLEN)
        view["orig_len"] = frame_len
        ip_len = frame_len - 14
        view["ip_len"] = ip_len
        view["ip_id"] = ip_id
        view["ip_sum"] = _finish(np.array(self._ip_sums)[flow] + ip_len
                                 + ip_id)
        seq &= 0xFFFFFFFF
        ack &= 0xFFFFFFFF
        transport_len = ip_len - 20
        # The pseudo header's length, and UDP's own length field.
        checksum = _finish(
            np.array(self._transport_sums)[flow] + transport_len * (1 + udp)
            + (seq >> 16) + (seq & 0xFFFF) + (ack >> 16) + (ack & 0xFFFF)
            + word + payload_sum)
        view["seq"] = np.where(
            udp, (transport_len << 16) | np.where(checksum, checksum, 0xFFFF),
            seq)
        view["ack"] = ack
        view["word"] = word
        view["tcp_sum"] = checksum
        # A record stores the first SNAPLEN bytes of a longer frame.
        for i in np.flatnonzero(frame_len > SNAPLEN).tolist():
            data[i] = data[i][:SNAPLEN - header_len[i]]
        return block.tobytes(), header_len


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