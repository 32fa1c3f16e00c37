"""Cross-module property-based tests on core invariants.

These complement the per-module property tests: they exercise whole
sub-stacks (codec compositions, flow keys, batch codec, timelines)
under hypothesis-generated inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_oracle import canonical_key
from packet_oracle import (CapturedPacket, EthernetFrame, Ipv4Packet,
                           TcpSegment, UdpDatagram, decode_all,
                           decode_packet, dump_bytes, load_bytes)
from repro.acr import Capture, FingerprintBatch, bands_of, hamming_distance
from repro.analysis import cumulative_bytes, packets_per_ms
from repro.net import ColumnarCapture, ColumnarSlice, Ipv4Address, MacAddress
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ip import PROTO_TCP, PROTO_UDP
from repro.net.packet import LazyPacket
from repro.net.tcp import FLAG_ACK
from repro.sim.clock import NS_PER_MS
from timeline_oracle import dense_binned, rebin

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")

addresses = st.integers(min_value=1, max_value=(1 << 32) - 2).map(
    Ipv4Address)
ports = st.integers(min_value=1, max_value=65535)


def _frame(src_ip, dst_ip, sport, dport, payload):
    segment = TcpSegment(sport, dport, 1, 2, FLAG_ACK, payload=payload)
    ip = Ipv4Packet(src_ip, dst_ip, PROTO_TCP,
                    segment.encode(src_ip, dst_ip))
    return EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4,
                         ip.encode()).encode()


class TestFullStackCodec:
    @given(addresses, addresses, ports, ports,
           st.binary(max_size=1200),
           st.integers(min_value=0, max_value=2 ** 50))
    @settings(max_examples=60)
    def test_compose_decode_roundtrip(self, src, dst, sport, dport,
                                      payload, ts):
        packet = CapturedPacket(ts, _frame(src, dst, sport, dport,
                                           payload))
        decoded = decode_packet(packet)
        assert decoded.src_ip == src
        assert decoded.dst_ip == dst
        assert decoded.src_port == sport
        assert decoded.dst_port == dport
        assert decoded.transport_payload == payload

    @given(st.lists(st.tuples(addresses, addresses, ports, ports,
                              st.binary(max_size=200)),
                    min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_pcap_never_loses_packets(self, items):
        packets = [CapturedPacket(i * 1000,
                                  _frame(src, dst, sport, dport, payload))
                   for i, (src, dst, sport, dport, payload)
                   in enumerate(items)]
        assert len(load_bytes(dump_bytes(packets))) == len(packets)

    @given(st.lists(st.tuples(addresses, addresses, ports, ports),
                    min_size=1, max_size=40))
    @settings(max_examples=20)
    def test_flow_direction_symmetry(self, tuples):
        """A->B and B->A share one flow key, the oracle's."""
        packets = []
        for i, (src, dst, sport, dport) in enumerate(tuples):
            packets.append(CapturedPacket(
                2 * i, _frame(src, dst, sport, dport, b"x")))
            packets.append(CapturedPacket(
                2 * i + 1, _frame(dst, src, dport, sport, b"y")))
        capture = ColumnarCapture.from_pcap_bytes(dump_bytes(packets))
        for i in range(len(tuples)):
            assert capture.flow_keys(2 * i, 2 * i + 2) == {
                canonical_key(decode_packet(packets[2 * i]))}


def _udp_frame(src_ip, dst_ip, sport, dport, payload):
    datagram = UdpDatagram(sport, dport, payload)
    ip = Ipv4Packet(src_ip, dst_ip, PROTO_UDP,
                    datagram.encode(src_ip, dst_ip))
    return EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4,
                         ip.encode()).encode()


def _outcome(tier, data):
    """(flow key tuple) on success, or the exception type on failure."""
    try:
        packet = tier(CapturedPacket(7, data))
    except ValueError:
        return ValueError
    return (packet.src_ip, packet.dst_ip, packet.src_port,
            packet.dst_port, packet.flow_proto, packet.length)


class TestLazyVsFullDecode:
    """The lazy tier must be observationally identical to the full
    decoder: same flow keys and lengths on well-formed frames, and the
    same raise-vs-tolerate behaviour on truncated or mutated bytes."""

    @given(addresses, addresses, ports, ports, st.binary(max_size=600),
           st.booleans())
    @settings(max_examples=60)
    def test_flow_keys_match_on_wellformed_frames(self, src, dst, sport,
                                                  dport, payload, use_udp):
        frame = (_udp_frame if use_udp else _frame)(
            src, dst, sport, dport, payload)
        assert _outcome(lambda p: LazyPacket(p.timestamp, p.data),
                        frame) == _outcome(decode_packet, frame)

    @given(addresses, addresses, ports, ports, st.binary(max_size=300),
           st.data())
    @settings(max_examples=80)
    def test_truncation_raises_identically(self, src, dst, sport, dport,
                                           payload, data):
        frame = _frame(src, dst, sport, dport, payload)
        cut = data.draw(st.integers(min_value=0,
                                    max_value=len(frame) - 1))
        truncated = frame[:cut]
        lazy = _outcome(lambda p: LazyPacket(p.timestamp, p.data),
                        truncated)
        full = _outcome(decode_packet, truncated)
        assert (lazy == ValueError) == (full == ValueError)
        if lazy != ValueError:
            assert lazy == full

    @given(addresses, addresses, ports, ports, st.binary(max_size=200),
           st.data())
    @settings(max_examples=80)
    def test_mutation_raises_identically(self, src, dst, sport, dport,
                                         payload, data):
        """Mutations in the layers the lazy tier parses (Ethernet + the
        IPv4 header) must raise identically; anywhere deeper the lazy
        tier may only be *more* tolerant (it defers transport decode),
        never stricter."""
        frame = bytearray(_frame(src, dst, sport, dport, payload))
        index = data.draw(st.integers(min_value=0,
                                      max_value=len(frame) - 1))
        value = data.draw(st.integers(min_value=0, max_value=255))
        frame[index] = value
        mutated = bytes(frame)
        lazy = _outcome(lambda p: LazyPacket(p.timestamp, p.data),
                        mutated)
        full = _outcome(decode_packet, mutated)
        if lazy == ValueError:
            assert full == ValueError
        elif full != ValueError:
            assert lazy == full

    @given(addresses, addresses, ports, st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
        max_size=20))
    @settings(max_examples=30)
    def test_dns_views_agree(self, src, dst, sport, label):
        from repro.net.dns import DnsMessage
        query = DnsMessage.query(7, f"{label}.example")
        frame = _udp_frame(src, dst, sport, 53, query.encode())
        lazy = LazyPacket(11, frame)
        full = decode_packet(CapturedPacket(11, frame))
        assert lazy.dns is not None and full.dns is not None
        assert [q.name for q in lazy.dns.questions] == \
            [q.name for q in full.dns.questions]


class TestFingerprintProperties:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=63))
    @settings(max_examples=100)
    def test_banding_pigeonhole(self, base, bit):
        """Any 1-bit corruption still shares 3 of 4 bands."""
        corrupted = base ^ (1 << bit)
        shared = sum(1 for a, b in zip(bands_of(base), bands_of(corrupted))
                     if a == b)
        assert shared == 3
        assert hamming_distance(base, corrupted) == 1

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=2 ** 31),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                 max_size=10)), max_size=20),
        st.text(alphabet="abcdef0123456789-", min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_batch_codec_roundtrip(self, captures_data, device_id):
        captures = [Capture(offset * 1_000_000, video, audio)
                    for offset, video, audio in captures_data]
        batch = FingerprintBatch(device_id, captures)
        decoded = FingerprintBatch.decode(batch.encode())
        assert decoded.device_id == device_id
        assert [c.video_hash for c in decoded.captures] == \
            [c.video_hash for c in captures]
        assert [c.audio_hashes for c in decoded.captures] == \
            [c.audio_hashes for c in captures]


class TestAnalysisProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 12),
                    min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_timeline_total_equals_in_window_count(self, timestamps):
        packets = [CapturedPacket(ts, _frame(
            Ipv4Address.parse("10.0.0.1"), Ipv4Address.parse("10.0.0.2"),
            1000, 2000, b"")) for ts in timestamps]
        decoded = decode_all(packets)
        start, end = 0, 10 ** 12 + 1
        timeline = packets_per_ms(decoded, start, end)
        assert timeline.total_packets == len(decoded)

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 11),
                    min_size=1, max_size=100),
           st.integers(min_value=2, max_value=50))
    @settings(max_examples=30)
    def test_rebin_preserves_mass(self, timestamps, factor):
        packets = decode_all([CapturedPacket(ts, _frame(
            Ipv4Address.parse("10.0.0.1"), Ipv4Address.parse("10.0.0.2"),
            1000, 2000, b"")) for ts in timestamps])
        timeline = packets_per_ms(packets, 0, 10 ** 11 + 1)
        # Rebinning can only drop packets in the truncated tail remainder.
        coarse = rebin(timeline, factor)
        dense = dense_binned(timestamps, 0, 10 ** 11 + 1, NS_PER_MS)
        tail = dense.counts[len(coarse) * factor:].sum()
        assert coarse.total_packets + tail == timeline.total_packets

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 11),
                    min_size=1, max_size=100))
    @settings(max_examples=30)
    def test_cumulative_curve_invariants(self, timestamps):
        capture = ColumnarCapture.from_pcap_bytes(dump_bytes([
            CapturedPacket(ts, _frame(
                Ipv4Address.parse("10.0.0.1"),
                Ipv4Address.parse("10.0.0.2"), 1000, 2000, b""))
            for ts in timestamps]))
        packets = ColumnarSlice(capture, np.arange(len(capture)))
        curve = cumulative_bytes(packets, 0, 10 ** 11 + 1)
        assert curve.total_bytes == sum(p.length for p in packets)
        diffs = np.diff(curve.cumulative_bytes)
        assert (diffs >= 0).all()
