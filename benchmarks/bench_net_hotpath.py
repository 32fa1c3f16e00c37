"""Packet-codec hot path: vectorized checksum, template encode, lazy decode.

Every table, figure, grid cell and fleet shard funnels through this
path, so its perf trajectory is pinned hard:

* the arithmetic RFC 1071 checksum must beat the seed per-byte carry
  loop by >= 5x on MSS-sized buffers;
* lazy flow-key decode must beat full object decode by >= 5x on a
  realistic synthesized capture;
* columnar decode (raw pcap bytes -> numpy struct-array columns, zero
  per-packet Python objects) must beat full object decode by >= 50x —
  the one decode every audit runs;
* template-based segment encode must beat the full object codec
  (checked at >= 1.5x with wide headroom against timer noise — actual
  is ~2.1x; the remaining per-segment cost is the payload word sum,
  which both paths must pay).

The same measurements feed ``scripts/bench_report.py`` (``make
bench-json``), which is how future PRs regression-check against the
committed ``BENCH_<n>.json`` trajectory.
"""

import io
import time

from repro.net import (CapturedPacket, ColumnarCapture, Ipv4Address,
                       MacAddress, PcapReader, TcpFrameTemplate, TcpSegment,
                       decode_all, decode_packet, dump_bytes, lazy_decode_all,
                       load_bytes)
from repro.net.checksum import internet_checksum
from repro.net.packet import build_tcp_frame
from repro.reporting import render_table

MAC_TV = MacAddress.parse("02:00:00:00:00:01")
MAC_AP = MacAddress.parse("02:00:00:00:00:02")
IP_TV = Ipv4Address.parse("192.168.1.23")
IP_SRV = Ipv4Address.parse("203.0.113.9")

CHECKSUM_SPEEDUP_FLOOR = 5.0
DECODE_SPEEDUP_FLOOR = 5.0
COLUMNAR_SPEEDUP_FLOOR = 50.0
ENCODE_SPEEDUP_FLOOR = 1.5


def seed_internet_checksum(data: bytes) -> int:
    """The pre-vectorization implementation, kept as the reference."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def best_of(fn, repeats=5):
    """Best-of-N wall time: robust against scheduler noise."""
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def synth_capture(segments=2000, payload_len=1200):
    """A realistic TLS-ish capture: data segments plus reverse ACKs."""
    packets = []
    payload = bytes(range(256)) * (payload_len // 256 + 1)
    payload = payload[:payload_len]
    seq = ack = 1000
    for index in range(segments):
        packets.append(CapturedPacket(index * 2_000, build_tcp_frame(
            MAC_TV, MAC_AP, IP_TV, IP_SRV,
            TcpSegment(40001, 443, seq, ack, 0x18, payload=payload),
            identification=index & 0xFFFF)))
        seq += payload_len
        packets.append(CapturedPacket(index * 2_000 + 1_000, build_tcp_frame(
            MAC_AP, MAC_TV, IP_SRV, IP_TV,
            TcpSegment(443, 40001, ack, seq, 0x10),
            identification=(index + 7) & 0xFFFF)))
    return packets


def measure_checksum(buffers=2000, size=1460):
    data = [bytes([(i + j) & 0xFF for j in range(size)])
            for i in range(16)]
    seed_s = best_of(lambda: [seed_internet_checksum(data[i % 16])
                              for i in range(buffers)], repeats=3)
    fast_s = best_of(lambda: [internet_checksum(data[i % 16])
                              for i in range(buffers)])
    return seed_s, fast_s


def measure_decode(segments=1500):
    packets = synth_capture(segments)
    full_s = best_of(lambda: [decode_packet(p) for p in packets], repeats=3)
    fast_s = best_of(lambda: lazy_decode_all(packets))
    return full_s, fast_s


def measure_columnar(segments=1500):
    """Raw pcap bytes all the way to queryable packets: object decode
    (``load_bytes`` + ``decode_all``) vs one columnar build."""
    raw = dump_bytes(synth_capture(segments))
    full_s = best_of(lambda: decode_all(load_bytes(raw)), repeats=3)
    fast_s = best_of(lambda: ColumnarCapture.from_pcap_bytes(raw))
    return full_s, fast_s


def measure_encode(frames=3000, payload_len=1200):
    payload = b"\xa5" * payload_len
    template = TcpFrameTemplate(MAC_TV, MAC_AP, IP_TV, IP_SRV, 40001, 443)

    def object_path():
        for i in range(frames):
            build_tcp_frame(MAC_TV, MAC_AP, IP_TV, IP_SRV,
                            TcpSegment(40001, 443, i, 7, 0x18,
                                       payload=payload),
                            identification=i & 0xFFFF)

    def template_path():
        for i in range(frames):
            template.frame(i & 0xFFFF, i, 7, 0x18, payload)

    return best_of(object_path, repeats=3), best_of(template_path)


def measure_pcap_load(segments=1500):
    raw = dump_bytes(synth_capture(segments))
    return best_of(lambda: list(PcapReader(io.BytesIO(raw))))


def _row(name, seed_s, fast_s):
    speedup = seed_s / fast_s if fast_s else float("inf")
    return [name, f"{seed_s * 1e3:.1f}", f"{fast_s * 1e3:.1f}",
            f"{speedup:.1f}x"], speedup


def test_checksum_vectorization_speedup():
    seed_s, fast_s = measure_checksum()
    row, speedup = _row("checksum (1460B x2000)", seed_s, fast_s)
    print("\n" + render_table(
        ["microbench", "seed ms", "fast ms", "speedup"], [row]))
    assert seed_internet_checksum(b"\x45\x00" * 30) == \
        internet_checksum(b"\x45\x00" * 30)
    assert speedup >= CHECKSUM_SPEEDUP_FLOOR, \
        f"checksum speedup {speedup:.1f}x below {CHECKSUM_SPEEDUP_FLOOR}x"


def test_lazy_decode_speedup():
    full_s, fast_s = measure_decode()
    row, speedup = _row("decode (3000 pkts)", full_s, fast_s)
    print("\n" + render_table(
        ["microbench", "full ms", "lazy ms", "speedup"], [row]))
    assert speedup >= DECODE_SPEEDUP_FLOOR, \
        f"lazy decode speedup {speedup:.1f}x below {DECODE_SPEEDUP_FLOOR}x"


def test_columnar_decode_speedup():
    full_s, fast_s = measure_columnar()
    row, speedup = _row("columnar (3000 pkts)", full_s, fast_s)
    print("\n" + render_table(
        ["microbench", "object ms", "columnar ms", "speedup"], [row]))
    assert speedup >= COLUMNAR_SPEEDUP_FLOOR, \
        f"columnar decode speedup {speedup:.1f}x below " \
        f"{COLUMNAR_SPEEDUP_FLOOR}x"


def test_template_encode_speedup():
    object_s, template_s = measure_encode()
    row, speedup = _row("encode (3000 frames)", object_s, template_s)
    print("\n" + render_table(
        ["microbench", "object ms", "template ms", "speedup"], [row]))
    assert speedup >= ENCODE_SPEEDUP_FLOOR, \
        f"template encode speedup {speedup:.1f}x below " \
        f"{ENCODE_SPEEDUP_FLOOR}x"
