"""The per-packet object tier: the reference the capture path is pinned
against.

Production writes a capture in one pass (``CaptureLog.encode``), frames
its records with ``repro.net.pcap.walk_records`` and decodes it column
by column (``repro.net.columnar``).  This module keeps the object tier
those paths replaced, for tests and benchmarks to compare against:

* the RFC 1071 checksum (``ones_complement_sum``, ``internet_checksum``,
  ``pseudo_header``, ``verify_checksum``) over ``repro.net.checksum``'s
  ``word_sum``;
* the per-layer codecs (``EthernetFrame``, ``Ipv4Packet``,
  ``TcpSegment`` with ``flag_names``, ``UdpDatagram``) and
  ``build_tcp_frame``/``build_udp_frame``, which compose a frame one
  layer object at a time: the frames ``CaptureLog`` rows must encode
  to;
* ``CapturedPacket`` (a timestamp plus raw frame bytes), ``PcapWriter``
  and ``dump_bytes``, the record-at-a-time writer ``CaptureLog.encode``
  must match byte for byte; ``iter_records``, the strict record reader
  that raises at a stream's first break, which ``walk_records`` must
  match record for record and error for error; and ``load_bytes``, its
  walk as a packet list;
* the layer decoders (``decode_ethernet``, ``decode_ipv4``,
  ``decode_tcp``, ``decode_udp``) and ``decode_packet``/``decode_all``,
  which parse a frame as deep as its bytes allow into a
  ``DecodedPacket``;
* ``lazy_decode``/``lazy_decode_all``, the ``LazyPacket`` rows that are
  the columnar build's per-row reference;
* ``observe_all`` (a ``DnsMap`` over a packet sequence) and
  ``cumulative_bytes`` over a packet list, the reference for the
  columnar CDF build;
* ``decode_stream``, which splits a byte stream into whole TLS records
  and the rest, and ``extract_sni``, the passive observer's parse of a
  ClientHello's server name, which the handshake builders must carry.
"""

import io
import struct
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.cdf import CumulativeCurve
from repro.analysis.dns_map import DnsMap
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.checksum import word_sum
from repro.net.dns import DnsMessage
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ip import PROTO_TCP, PROTO_UDP
from repro.net.packet import DNS_PORT, LazyPacket
from repro.net.pcap import (GLOBAL_HEADER, LINKTYPE_ETHERNET, MAGIC_USEC,
                            RECORD_HEADER, SNAPLEN, VERSION_MAJOR,
                            VERSION_MINOR, PcapError, parse_global_header)
from repro.net.tcp import FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN
from repro.net.tls import (CONTENT_HANDSHAKE, HANDSHAKE_CLIENT_HELLO,
                           RECORD_HEADER_LEN, TlsRecord)
from repro.sim.clock import NS_PER_SECOND

_NS_PER_US = 1_000
_NS_PER_S = NS_PER_SECOND

FLAG_RST = 0x04


# -- checksums ----------------------------------------------------------------


def ones_complement_sum(data: bytes) -> int:
    """End-around-carry sum of big-endian 16-bit words, per RFC 1071:
    ``word_sum``, with a nonzero buffer's multiple of 0xFFFF read as
    0xFFFF ("negative zero") and only the all-zero buffer as 0."""
    total = word_sum(data)
    if total == 0 and any(data):
        return 0xFFFF
    return total


def internet_checksum(data: bytes) -> int:
    """One's-complement of the one's-complement sum, per RFC 1071."""
    return (~ones_complement_sum(data)) & 0xFFFF


def pseudo_header(src: bytes, dst: bytes, protocol: int,
                  length: int) -> bytes:
    """IPv4 pseudo header used in TCP/UDP checksum computation."""
    return (src + dst
            + bytes([0, protocol])
            + length.to_bytes(2, "big"))


def verify_checksum(data: bytes) -> bool:
    """True when a buffer containing its own checksum sums to zero."""
    return ones_complement_sum(data) == 0xFFFF


# -- layer codecs -------------------------------------------------------------


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
        return 14 + len(self.payload)

    def __repr__(self) -> str:
        return (f"EthernetFrame({self.src} -> {self.dst}, "
                f"type={self.ethertype:#06x}, {len(self.payload)}B)")


class Ipv4Packet:
    """IPv4 header (RFC 791, no options) + payload."""

    __slots__ = ("src", "dst", "protocol", "ttl", "identification",
                 "dscp", "flags_df", "payload")

    def __init__(self, src: Ipv4Address, dst: Ipv4Address, protocol: int,
                 payload: bytes, ttl: int = 64, identification: int = 0,
                 dscp: int = 0, flags_df: bool = True) -> None:
        if not 0 <= protocol <= 255:
            raise ValueError(f"protocol out of range: {protocol}")
        if not 0 < ttl <= 255:
            raise ValueError(f"ttl out of range: {ttl}")
        if not 0 <= identification <= 0xFFFF:
            raise ValueError(f"identification out of range: {identification}")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.ttl = ttl
        self.identification = identification
        self.dscp = dscp
        self.flags_df = flags_df
        self.payload = payload

    @property
    def total_length(self) -> int:
        return 20 + len(self.payload)

    def encode(self) -> bytes:
        if self.total_length > 0xFFFF:
            raise ValueError(f"IPv4 packet too large: {self.total_length}")
        version_ihl = (4 << 4) | 5
        flags_fragment = (0x4000 if self.flags_df else 0)
        header = bytearray()
        header.append(version_ihl)
        header.append(self.dscp << 2)
        header += self.total_length.to_bytes(2, "big")
        header += self.identification.to_bytes(2, "big")
        header += flags_fragment.to_bytes(2, "big")
        header.append(self.ttl)
        header.append(self.protocol)
        header += b"\x00\x00"  # checksum placeholder
        header += self.src.to_bytes()
        header += self.dst.to_bytes()
        checksum = internet_checksum(bytes(header))
        header[10:12] = checksum.to_bytes(2, "big")
        return bytes(header) + self.payload

    def __repr__(self) -> str:
        return (f"Ipv4Packet({self.src} -> {self.dst}, proto={self.protocol},"
                f" ttl={self.ttl}, {len(self.payload)}B)")


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
    """TCP header (RFC 793, no options beyond MSS on SYN) + payload."""

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
        data_offset = (20 + len(options)) // 4
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


class UdpDatagram:
    """UDP header (RFC 768) + payload."""

    __slots__ = ("src_port", "dst_port", "payload")

    def __init__(self, src_port: int, dst_port: int, payload: bytes) -> None:
        for name, port in (("src_port", src_port), ("dst_port", dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload

    @property
    def length(self) -> int:
        return 8 + len(self.payload)

    def encode(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> bytes:
        header = bytearray()
        header += self.src_port.to_bytes(2, "big")
        header += self.dst_port.to_bytes(2, "big")
        header += self.length.to_bytes(2, "big")
        header += b"\x00\x00"
        body = bytes(header) + self.payload
        pseudo = pseudo_header(src_ip.to_bytes(), dst_ip.to_bytes(),
                               PROTO_UDP, self.length)
        checksum = internet_checksum(pseudo + body)
        if checksum == 0:
            checksum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
        header[6:8] = checksum.to_bytes(2, "big")
        return bytes(header) + self.payload

    def __repr__(self) -> str:
        return (f"UdpDatagram({self.src_port} -> {self.dst_port}, "
                f"{len(self.payload)}B)")


def build_udp_frame(src_mac: MacAddress, dst_mac: MacAddress,
                    src_ip: Ipv4Address, dst_ip: Ipv4Address,
                    src_port: int, dst_port: int, payload: bytes,
                    identification: int = 0, ttl: int = 64) -> bytes:
    """Compose UDP payload down to Ethernet bytes."""
    udp = UdpDatagram(src_port, dst_port, payload)
    ip = Ipv4Packet(src_ip, dst_ip, PROTO_UDP,
                    udp.encode(src_ip, dst_ip),
                    ttl=ttl, identification=identification)
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip.encode()) \
        .encode()


def build_tcp_frame(src_mac: MacAddress, dst_mac: MacAddress,
                    src_ip: Ipv4Address, dst_ip: Ipv4Address,
                    segment: TcpSegment,
                    identification: int = 0, ttl: int = 64) -> bytes:
    """Compose a TCP segment down to Ethernet bytes."""
    ip = Ipv4Packet(src_ip, dst_ip, PROTO_TCP,
                    segment.encode(src_ip, dst_ip),
                    ttl=ttl, identification=identification)
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip.encode()) \
        .encode()


class CapturedPacket:
    """One packet on the wire: capture timestamp (ns) + raw frame bytes."""

    __slots__ = ("timestamp", "data")

    def __init__(self, timestamp: int, data: bytes) -> None:
        if timestamp < 0:
            raise ValueError("negative capture timestamp")
        self.timestamp = timestamp
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"CapturedPacket(t={self.timestamp}, {len(self.data)}B)"


# -- pcap ---------------------------------------------------------------------


class PcapWriter:
    """Stream packets into a pcap file object, one record per write."""

    def __init__(self, fileobj: BinaryIO, snaplen: int = SNAPLEN) -> None:
        if snaplen <= 0:
            raise ValueError(f"snaplen must be positive: {snaplen}")
        self._file = fileobj
        self._snaplen = snaplen
        self.count = 0
        self._file.write(GLOBAL_HEADER.pack(
            MAGIC_USEC, VERSION_MAJOR, VERSION_MINOR,
            0, 0, snaplen, LINKTYPE_ETHERNET))

    def write(self, packet: CapturedPacket) -> None:
        ts_sec, ts_ns = divmod(packet.timestamp, NS_PER_SECOND)
        orig_len = len(packet.data)
        # Records honor the declared snaplen the way a real capture
        # engine would: truncate the stored bytes, preserve orig_len.
        incl_len = min(orig_len, self._snaplen)
        self._file.write(RECORD_HEADER.pack(ts_sec, ts_ns // _NS_PER_US,
                                            incl_len, orig_len))
        self._file.write(packet.data[:incl_len] if incl_len < orig_len
                         else packet.data)
        self.count += 1

    def write_all(self, packets: Iterable[CapturedPacket]) -> None:
        for packet in packets:
            self.write(packet)


def dump_bytes(packets: Iterable[CapturedPacket]) -> bytes:
    """Serialize a packet list to pcap bytes in memory."""
    buffer = io.BytesIO()
    PcapWriter(buffer).write_all(packets)
    return buffer.getvalue()


def iter_records(buf) -> Iterator[Tuple[int, int, int, int]]:
    """Walk the record headers of an in-memory pcap buffer.

    Yields ``(timestamp_ns, frame_offset, incl_len, orig_len)`` per
    record without copying a single frame byte — consumers slice (or
    index into) the one buffer they already hold.  This is the strict
    record reader, written independently of ``repro.net.pcap``'s
    ``walk_records`` (which collects the same records and returns its
    first break instead of raising it): a truncated record header, a
    record longer than the snaplen allows and truncated record data
    raise :class:`PcapError`, checked in that order, once every record
    before the break has been yielded.
    """
    swapped, snaplen, __ = parse_global_header(buf)
    offset = GLOBAL_HEADER.size
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


def load_bytes(raw: Union[bytes, bytearray]) -> List[CapturedPacket]:
    """Parse pcap bytes into a packet list; every packet's ``data`` is a
    view into ``raw``."""
    buf = memoryview(raw)
    return [CapturedPacket(ts, buf[offset:offset + incl_len])
            for ts, offset, incl_len, __ in iter_records(buf)]


# -- layer decoders -------------------------------------------------------------


def decode_ethernet(raw: bytes) -> EthernetFrame:
    if len(raw) < 14:
        raise ValueError(f"frame too short: {len(raw)} bytes")
    return EthernetFrame(MacAddress.from_bytes(raw[0:6]),
                         MacAddress.from_bytes(raw[6:12]),
                         int.from_bytes(raw[12:14], "big"), raw[14:])


def decode_ipv4(raw: bytes, verify: bool = True) -> Ipv4Packet:
    if len(raw) < 20:
        raise ValueError(f"IPv4 packet too short: {len(raw)} bytes")
    version = raw[0] >> 4
    if version != 4:
        raise ValueError(f"not IPv4: version={version}")
    ihl = (raw[0] & 0x0F) * 4
    if ihl < 20 or len(raw) < ihl:
        raise ValueError(f"bad IHL: {ihl}")
    total_length = int.from_bytes(raw[2:4], "big")
    if total_length > len(raw):
        raise ValueError(f"truncated packet: header says {total_length}, "
                         f"buffer has {len(raw)}")
    if verify and internet_checksum(raw[:ihl]) != 0:
        raise ValueError("IPv4 header checksum mismatch")
    return Ipv4Packet(
        src=Ipv4Address.from_bytes(raw[12:16]),
        dst=Ipv4Address.from_bytes(raw[16:20]),
        protocol=raw[9],
        payload=raw[ihl:total_length],
        ttl=raw[8],
        identification=int.from_bytes(raw[4:6], "big"),
        dscp=raw[1] >> 2,
        flags_df=bool(int.from_bytes(raw[6:8], "big") & 0x4000))


def decode_tcp(raw: bytes) -> TcpSegment:
    if len(raw) < 20:
        raise ValueError(f"TCP segment too short: {len(raw)} bytes")
    data_offset = (raw[12] >> 4) * 4
    if data_offset < 20 or data_offset > len(raw):
        raise ValueError(f"bad TCP data offset: {data_offset}")
    mss = 0
    options = raw[20:data_offset]
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == 0:  # end of options
            break
        if kind == 1:  # NOP
            i += 1
            continue
        if i + 1 >= len(options):
            break
        length = options[i + 1]
        if length < 2 or i + length > len(options):
            break
        if kind == 2 and length == 4:
            mss = int.from_bytes(options[i + 2:i + 4], "big")
        i += length
    return TcpSegment(
        src_port=int.from_bytes(raw[0:2], "big"),
        dst_port=int.from_bytes(raw[2:4], "big"),
        seq=int.from_bytes(raw[4:8], "big"),
        ack=int.from_bytes(raw[8:12], "big"),
        flags=raw[13],
        payload=raw[data_offset:],
        window=int.from_bytes(raw[14:16], "big"),
        mss_option=mss)


def decode_udp(raw: bytes) -> UdpDatagram:
    if len(raw) < 8:
        raise ValueError(f"UDP datagram too short: {len(raw)} bytes")
    length = int.from_bytes(raw[4:6], "big")
    if length < 8 or length > len(raw):
        raise ValueError(f"bad UDP length: {length}")
    return UdpDatagram(int.from_bytes(raw[0:2], "big"),
                       int.from_bytes(raw[2:4], "big"), raw[8:length])


# -- whole packets ----------------------------------------------------------------


class DecodedPacket:
    """Parsed view of a captured packet (as deep as the bytes allow)."""

    __slots__ = ("timestamp", "length", "eth", "ip", "tcp", "udp", "dns")

    def __init__(self, timestamp: int, length: int,
                 eth: EthernetFrame) -> None:
        self.timestamp = timestamp
        self.length = length
        self.eth = eth
        self.ip: Optional[Ipv4Packet] = None
        self.tcp: Optional[TcpSegment] = None
        self.udp: Optional[UdpDatagram] = None
        self.dns: Optional[DnsMessage] = None

    @property
    def src_ip(self) -> Optional[Ipv4Address]:
        return self.ip.src if self.ip else None

    @property
    def dst_ip(self) -> Optional[Ipv4Address]:
        return self.ip.dst if self.ip else None

    @property
    def src_port(self) -> Optional[int]:
        transport = self.tcp or self.udp
        return transport.src_port if transport else None

    @property
    def dst_port(self) -> Optional[int]:
        transport = self.tcp or self.udp
        return transport.dst_port if transport else None

    @property
    def flow_proto(self) -> Optional[str]:
        """Flow-table protocol discriminator (None for non-IP)."""
        if self.tcp:
            return "tcp"
        if self.udp:
            return "udp"
        return "ip" if self.ip else None

    @property
    def transport_payload(self) -> bytes:
        transport = self.tcp or self.udp
        return transport.payload if transport else b""


def decode_packet(packet: CapturedPacket) -> DecodedPacket:
    """Parse a captured packet as deep as its bytes allow, without
    checking the IPv4 header checksum.

    DNS parse failures are tolerated (the payload may be a non-DNS UDP
    protocol on port 53 in hostile captures); lower-layer failures raise.
    """
    data = bytes(packet.data)
    eth = decode_ethernet(data)
    decoded = DecodedPacket(packet.timestamp, len(data), eth)
    if eth.ethertype != ETHERTYPE_IPV4:
        return decoded
    ip = decoded.ip = decode_ipv4(eth.payload, verify=False)
    if ip.protocol == PROTO_TCP:
        decoded.tcp = decode_tcp(ip.payload)
    elif ip.protocol == PROTO_UDP:
        udp = decoded.udp = decode_udp(ip.payload)
        if DNS_PORT in (udp.src_port, udp.dst_port):
            try:
                decoded.dns = DnsMessage.decode(udp.payload)
            except ValueError:
                decoded.dns = None
    return decoded


def decode_all(packets: Iterable[CapturedPacket]) -> List[DecodedPacket]:
    """Decode a capture in order."""
    return [decode_packet(p) for p in packets]


def lazy_decode(packet: CapturedPacket) -> LazyPacket:
    """The ``LazyPacket`` row of one captured packet."""
    return LazyPacket(packet.timestamp, packet.data)


def lazy_decode_all(packets: Iterable[CapturedPacket]) -> List[LazyPacket]:
    """``LazyPacket`` rows of a capture, in order."""
    return [LazyPacket(p.timestamp, p.data) for p in packets]


# -- analysis references ------------------------------------------------------------


def observe_all(packets) -> DnsMap:
    """A DNS map that observed every packet, in order."""
    dns_map = DnsMap()
    for packet in packets:
        dns_map.observe(packet)
    return dns_map


def cumulative_bytes(packets, start_ns: int, end_ns: int,
                     sent_only_from=None) -> CumulativeCurve:
    """``repro.analysis.cdf.cumulative_bytes`` over any packet
    sequence: ``(time, length)`` points sorted as tuples."""
    if end_ns <= start_ns:
        raise ValueError("window ends before it starts")
    points = sorted(
        ((packet.timestamp - start_ns) / NS_PER_SECOND, packet.length)
        for packet in packets
        if start_ns <= packet.timestamp < end_ns
        and (sent_only_from is None or packet.src_ip == sent_only_from))
    times = np.array([t for t, __ in points], dtype=np.float64)
    sizes = np.array([s for __, s in points], dtype=np.int64)
    return CumulativeCurve(times, np.cumsum(sizes) if len(sizes)
                           else sizes)


# -- TLS ----------------------------------------------------------------------


def decode_stream(raw: bytes) -> Tuple[List[TlsRecord], bytes]:
    """Parse as many whole records as possible; return (records, rest).
    The version bytes are skipped: every record is TLS 1.2."""
    records: List[TlsRecord] = []
    offset = 0
    while offset + RECORD_HEADER_LEN <= len(raw):
        length = int.from_bytes(raw[offset + 3:offset + 5], "big")
        end = offset + RECORD_HEADER_LEN + length
        if end > len(raw):
            break
        records.append(TlsRecord(raw[offset], raw[offset + 5:end]))
        offset = end
    return records, raw[offset:]


def extract_sni(record: TlsRecord) -> Optional[str]:
    """Pull the SNI hostname out of a ClientHello record, if present."""
    if record.content_type != CONTENT_HANDSHAKE:
        return None
    payload = record.payload
    if len(payload) < 4 or payload[0] != HANDSHAKE_CLIENT_HELLO:
        return None
    body = payload[4:4 + int.from_bytes(payload[1:4], "big")]
    # Fixed-size prefix: version(2) + random(32) + session id
    offset = 2 + 32
    if offset >= len(body):
        return None
    session_len = body[offset]
    offset += 1 + session_len
    if offset + 2 > len(body):
        return None
    suites_len = int.from_bytes(body[offset:offset + 2], "big")
    offset += 2 + suites_len
    if offset >= len(body):
        return None
    compression_len = body[offset]
    offset += 1 + compression_len
    if offset + 2 > len(body):
        return None
    ext_total = int.from_bytes(body[offset:offset + 2], "big")
    offset += 2
    end = min(len(body), offset + ext_total)
    while offset + 4 <= end:
        ext_type = int.from_bytes(body[offset:offset + 2], "big")
        ext_len = int.from_bytes(body[offset + 2:offset + 4], "big")
        offset += 4
        if ext_type == 0 and offset + ext_len <= end:
            ext = body[offset:offset + ext_len]
            if len(ext) >= 5:
                host_len = int.from_bytes(ext[3:5], "big")
                host = ext[5:5 + host_len]
                try:
                    return host.decode("ascii")
                except UnicodeDecodeError:
                    return None
        offset += ext_len
    return None
