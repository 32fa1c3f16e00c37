"""The capture log's one-pass encode against the object codec.

``CaptureLog.encode`` must write exactly what ``dump_bytes`` writes for
the same packets built one at a time by ``build_tcp_frame`` and
``build_udp_frame`` and stably sorted by timestamp.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (CaptureLog, CapturedPacket, Ipv4Address, MacAddress,
                       TcpSegment, dump_bytes)
from repro.net.capture import BLOCK, SNAPLEN
from repro.net.packet import build_tcp_frame, build_udp_frame
from repro.net.tcp import FLAG_ACK, FLAG_SYN

MAC_TV = MacAddress.parse("02:00:00:00:00:01")
MAC_AP = MacAddress.parse("02:00:00:00:00:02")

addresses = st.integers(min_value=1, max_value=(1 << 32) - 2).map(
    Ipv4Address)
ports = st.integers(min_value=1, max_value=65535)
flows = st.tuples(st.booleans(), addresses, addresses, ports, ports,
                  st.sampled_from([64, 57, 3, 255]))
# A narrow range makes ties; a wide one covers the seconds field.
timestamps = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda t: t * 1_000),
    st.integers(min_value=0, max_value=30 * 3_600 * 10**9))
ip_ids = st.integers(min_value=0, max_value=0xFFFF)
wide = st.integers(min_value=0, max_value=1 << 33)
rows = st.one_of(
    st.tuples(st.just("tcp"), st.integers(0, 7), timestamps, ip_ids,
              wide, wide, st.integers(0, 255), st.binary(max_size=1460)),
    st.tuples(st.just("syn"), st.integers(0, 7), timestamps, ip_ids,
              wide, wide, st.sampled_from([FLAG_SYN, FLAG_SYN | FLAG_ACK]),
              st.just(b"")),
    st.tuples(st.just("udp"), st.integers(0, 7), timestamps, ip_ids,
              st.just(0), st.just(0), st.just(0), st.binary(max_size=600)))


class Capture:
    """Feeds the same packets to a log and to the object codec."""

    def __init__(self, flow_specs):
        self.log = CaptureLog()
        self.log.recording = True
        self.flows = []
        for outbound, src, dst, sport, dport, ttl in flow_specs:
            macs = (MAC_TV, MAC_AP) if outbound else (MAC_AP, MAC_TV)
            flow = self.log.flow(*macs, src, dst, sport, dport, ttl)
            self.flows.append((flow, macs, src, dst, sport, dport, ttl))
        self.packets = []

    def add(self, kind, index, ts, ip_id, seq, ack, flags, payload):
        flow, macs, src, dst, sport, dport, ttl = \
            self.flows[index % len(self.flows)]
        if kind == "udp":
            frame = build_udp_frame(*macs, src, dst, sport, dport, payload,
                                    identification=ip_id, ttl=ttl)
            self.log.frame(ts, frame)
        else:
            segment = TcpSegment(sport, dport, seq, ack, flags,
                                 payload=payload,
                                 mss_option=1460 if kind == "syn" else 0)
            frame = build_tcp_frame(*macs, src, dst, segment,
                                    identification=ip_id, ttl=ttl)
            if kind == "syn":
                self.log.frame(ts, frame)
            else:
                self.log.tcp(ts, flow, ip_id, seq, ack, flags, payload)
        self.packets.append(CapturedPacket(ts, frame))
        return frame

    def expected(self):
        return dump_bytes(sorted(self.packets, key=lambda p: p.timestamp))


def _flow(outbound=True, ttl=64):
    return (outbound, Ipv4Address.parse("192.168.1.50"),
            Ipv4Address.parse("203.0.113.9"), 40001, 443, ttl)


class TestEncodeMatchesObjectCodec:
    @given(st.lists(flows, min_size=1, max_size=4),
           st.lists(rows, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_rows_encode_to_sorted_object_frames(self, flow_specs, items):
        capture = Capture(flow_specs)
        for item in items:
            capture.add(*item)
        assert len(capture.log) == len(items)
        assert capture.log.encode() == capture.expected()
        assert len(capture.log) == 0

    def test_log_spanning_several_blocks(self):
        rng = random.Random(7)
        capture = Capture([_flow(True), _flow(False, 57), _flow(True, 3)])
        for __ in range(3 * BLOCK + 17):
            kind = rng.choice(["tcp"] * 8 + ["syn", "udp"])
            capture.add(kind, rng.randrange(3),
                        rng.randrange(0, 500) * 1_000,
                        rng.randrange(0x10000), rng.randrange(1 << 33),
                        rng.randrange(1 << 33), rng.randrange(256),
                        rng.randbytes(rng.choice([0, 0, 1, 2, 3, 1460,
                                                  rng.randrange(1461)])))
        assert capture.log.encode() == capture.expected()


class TestEncodeCorners:
    def test_empty_log(self):
        log = CaptureLog()
        assert log.encode() == dump_bytes([])

    def test_all_ack_capture(self):
        capture = Capture([_flow(True), _flow(False, 57)])
        for i in range(2 * BLOCK + 3):
            capture.add("tcp", i % 2, i * 1_000, i & 0xFFFF, i, i + 1,
                        FLAG_ACK, b"")
        assert capture.log.encode() == capture.expected()

    def test_tcp_sum_folding_to_zero(self):
        # A payload whose last word cancels the rest: the sum is
        # 0 mod 0xFFFF, so RFC 1071 folds it to 0xFFFF and the
        # checksum field reads 0x0000.
        probe = Capture([_flow()])
        prefix = bytes(range(1, 9))
        frame = probe.add("tcp", 0, 1_000, 9, 5, 6, FLAG_ACK,
                          prefix + b"\x00\x00")
        balance = frame[50:52]
        assert balance != b"\x00\x00"
        capture = Capture([_flow()])
        frame = capture.add("tcp", 0, 1_000, 9, 5, 6, FLAG_ACK,
                            prefix + balance)
        assert frame[50:52] == b"\x00\x00"
        assert capture.log.encode() == capture.expected()

    def test_ip_sum_folding_to_zero(self):
        probe = Capture([_flow()])
        frame = probe.add("tcp", 0, 1_000, 0, 5, 6, FLAG_ACK, b"x")
        ip_id = int.from_bytes(frame[24:26], "big")
        capture = Capture([_flow()])
        frame = capture.add("tcp", 0, 1_000, ip_id, 5, 6, FLAG_ACK, b"x")
        assert frame[24:26] == b"\x00\x00"
        assert capture.log.encode() == capture.expected()

    def test_frames_past_the_snaplen_are_cut_like_pcap_writer(self):
        capture = Capture([_flow()])
        capture.add("tcp", 0, 2_000, 1, 5, 6, FLAG_ACK,
                    b"t" * (0xFFFF - 40))
        capture.add("udp", 0, 1_000, 2, 0, 0, 0, b"u" * (0xFFFF - 28))
        assert all(len(p.data) > SNAPLEN for p in capture.packets)
        assert capture.log.encode() == capture.expected()

    def test_rows_only_while_recording(self):
        capture = Capture([_flow()])
        capture.log.recording = False
        capture.log.tcp(1_000, 0, 1, 2, 3, FLAG_ACK, b"lost")
        capture.log.frame(1_000, b"lost" * 10)
        assert len(capture.log) == 0
        assert capture.log.encode() == dump_bytes([])
