"""Packet-codec hot path: capture-log encode, columnar decode.

Every table, figure, grid cell and fleet shard funnels through this
path, so its perf trajectory is pinned hard:

* columnar decode (raw pcap bytes -> numpy struct-array columns, zero
  per-packet Python objects) must beat the per-packet object decode of
  ``tests/packet_oracle.py`` by >= 50x — the one decode every audit
  runs;
* encoding 3,000 segments to pcap bytes through the capture log (one
  row each, then one numpy pass) must beat the object codec plus the
  oracle's ``PcapWriter`` record per segment by >= 1.5x.

These two are wall-clock floors (marker ``wallclock``): ``make
bench-fidelity`` leaves them out, ``make bench`` runs them.  The same
measurements feed ``scripts/bench_report.py`` (``make
bench-json``), which is how future changes regression-check against the
committed ``BENCH_<n>.json`` trajectory.
"""

import os
import sys
import time

import pytest

from repro.net import CaptureLog, ColumnarCapture, Ipv4Address, MacAddress
from repro.net.pcap import walk_records
from repro.reporting import render_table

# The object tier the fast paths replaced lives with the tests.
sys.path.append(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from packet_oracle import (CapturedPacket, TcpSegment,  # noqa: E402
                           build_tcp_frame, decode_all, dump_bytes,
                           load_bytes)

MAC_TV = MacAddress.parse("02:00:00:00:00:01")
MAC_AP = MacAddress.parse("02:00:00:00:00:02")
IP_TV = Ipv4Address.parse("192.168.1.23")
IP_SRV = Ipv4Address.parse("203.0.113.9")

COLUMNAR_SPEEDUP_FLOOR = 50.0
ENCODE_SPEEDUP_FLOOR = 1.5


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


def measure_columnar(segments=1500):
    """Raw pcap bytes all the way to queryable packets: object decode
    (``load_bytes`` + ``decode_all``) vs one columnar build.  The
    columnar side takes well under a millisecond, so it gets more
    repeats to keep scheduler noise out of its best time."""
    raw = dump_bytes(synth_capture(segments))
    full_s = best_of(lambda: decode_all(load_bytes(raw)), repeats=3)
    fast_s = best_of(lambda: ColumnarCapture.from_pcap_bytes(raw),
                     repeats=25)
    return full_s, fast_s


def encode_paths(frames=3000, payload_len=1200):
    """The same segments to pcap bytes two ways: the object codec and
    the oracle's ``PcapWriter`` record per segment, or one capture-log
    row per segment and one encode."""
    payload = b"\xa5" * payload_len

    def object_path():
        return dump_bytes([CapturedPacket(i * 1_000, build_tcp_frame(
            MAC_TV, MAC_AP, IP_TV, IP_SRV,
            TcpSegment(40001, 443, i, 7, 0x18, payload=payload),
            identification=i & 0xFFFF)) for i in range(frames)])

    def log_path():
        log = CaptureLog()
        log.recording = True
        flow = log.flow(MAC_TV, MAC_AP, IP_TV, IP_SRV, 40001, 443, 64)
        for i in range(frames):
            log.tcp(i * 1_000, flow, i & 0xFFFF, i, 7, 0x18, payload)
        return log.encode()

    return object_path, log_path


def measure_encode(frames=3000, payload_len=1200):
    object_path, log_path = encode_paths(frames, payload_len)
    return best_of(object_path, repeats=3), best_of(log_path)


def measure_pcap_load(segments=1500):
    """The record walk every decode, split and salvage runs,
    ``walk_records``, over a whole capture."""
    raw = dump_bytes(synth_capture(segments))
    return best_of(lambda: walk_records(raw))


def _row(name, seed_s, fast_s):
    speedup = seed_s / fast_s if fast_s else float("inf")
    return [name, f"{seed_s * 1e3:.1f}", f"{fast_s * 1e3:.1f}",
            f"{speedup:.1f}x"], speedup


@pytest.mark.wallclock
def test_columnar_decode_speedup():
    full_s, fast_s = measure_columnar()
    row, speedup = _row("columnar (3000 pkts)", full_s, fast_s)
    print("\n" + render_table(
        ["microbench", "object ms", "columnar ms", "speedup"], [row]))
    assert speedup >= COLUMNAR_SPEEDUP_FLOOR, \
        f"columnar decode speedup {speedup:.1f}x below " \
        f"{COLUMNAR_SPEEDUP_FLOOR}x"


@pytest.mark.wallclock
def test_template_encode_speedup():
    object_path, log_path = encode_paths(frames=50)
    assert log_path() == object_path()
    object_s, log_s = measure_encode()
    row, speedup = _row("encode (3000 frames)", object_s, log_s)
    print("\n" + render_table(
        ["microbench", "object ms", "log ms", "speedup"], [row]))
    assert speedup >= ENCODE_SPEEDUP_FLOOR, \
        f"capture-log encode speedup {speedup:.1f}x below " \
        f"{ENCODE_SPEEDUP_FLOOR}x"
