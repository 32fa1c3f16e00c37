"""Equivalence tests for the fast-path codec tiers.

The perf rewrite (vectorized checksum, lazy decode) is only allowed to
change *speed*: every test here pins a fast tier against its reference
implementation — the arithmetic checksum against the RFC 1071 carry
loop and the lazy decoder against the oracle's ``decode_packet`` —
under hypothesis-generated inputs.  The capture log's one-pass encode is
pinned against the object codec in ``tests/test_capture_log.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_oracle import canonical_key, flow_keys
from packet_oracle import (CapturedPacket, EthernetFrame, PcapWriter,
                           TcpSegment, build_tcp_frame, build_udp_frame,
                           decode_packet, dump_bytes, internet_checksum,
                           lazy_decode, lazy_decode_all, ones_complement_sum,
                           verify_checksum)
from repro.net import ColumnarCapture, Ipv4Address, MacAddress

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")

addresses = st.integers(min_value=1, max_value=(1 << 32) - 2).map(
    Ipv4Address)
ports = st.integers(min_value=1, max_value=65535)


def _loop_checksum(data: bytes) -> int:
    """The seed RFC 1071 implementation: per-byte end-around carry."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestChecksumEquivalence:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_matches_reference_loop(self, data):
        assert internet_checksum(data) == _loop_checksum(data)

    @pytest.mark.parametrize("data", [
        b"",
        b"\x00" * 40,                 # true zero sum
        b"\xff\xff",                  # one's-complement "negative zero"
        b"\xff\xfe\x00\x01",          # nonzero words summing to 0xFFFF
        b"\xff\xff" * 500,            # large multiple of the modulus
        b"\x01",                      # odd length, padded
    ])
    def test_zero_collapse_corners(self, data):
        assert internet_checksum(data) == _loop_checksum(data)

    @given(st.binary(min_size=2, max_size=120).filter(
        lambda d: any(d) and len(d) % 2 == 0))
    @settings(max_examples=200)
    def test_verify_accepts_own_checksum(self, data):
        # Word-aligned buffers, as every protocol embedding its own
        # checksum (IP/TCP/UDP headers) guarantees.
        checksum = internet_checksum(data)
        assert verify_checksum(data + checksum.to_bytes(2, "big"))

    def test_verify_rejects_all_zero(self):
        assert not verify_checksum(b"\x00" * 20)

    def test_sum_is_shared_between_compute_and_verify(self):
        data = b"\x12\x34\x56\x78"
        assert internet_checksum(data) == \
            (~ones_complement_sum(data)) & 0xFFFF


def _tcp_capture(items):
    return [CapturedPacket(i * 1_000, build_tcp_frame(
        MAC_A, MAC_B, src, dst,
        TcpSegment(sport, dport, i, 2, 0x18, payload=payload),
        identification=i & 0xFFFF))
        for i, (src, dst, sport, dport, payload) in enumerate(items)]


class TestLazyDecodeEquivalence:
    @given(st.lists(st.tuples(addresses, addresses, ports, ports,
                              st.binary(max_size=400)),
                    min_size=1, max_size=25))
    @settings(max_examples=50)
    def test_agrees_with_full_decode_on_tcp(self, items):
        for packet in _tcp_capture(items):
            fast = lazy_decode(packet)
            full = decode_packet(packet)
            assert fast.timestamp == full.timestamp
            assert fast.length == full.length
            assert fast.src_ip == full.src_ip
            assert fast.dst_ip == full.dst_ip
            assert fast.src_port == full.src_port
            assert fast.dst_port == full.dst_port
            assert fast.flow_proto == full.flow_proto
            assert fast.transport_payload == full.transport_payload
            assert canonical_key(fast) == canonical_key(full)

    @given(addresses, addresses, ports, ports, st.binary(max_size=300))
    @settings(max_examples=100)
    def test_agrees_with_full_decode_on_udp(self, src, dst, sport, dport,
                                            payload):
        packet = CapturedPacket(7, build_udp_frame(
            MAC_A, MAC_B, src, dst, sport, dport, payload))
        fast = lazy_decode(packet)
        full = decode_packet(packet)
        assert (fast.src_ip, fast.dst_ip) == (full.src_ip, full.dst_ip)
        assert (fast.src_port, fast.dst_port) == \
            (full.src_port, full.dst_port)
        assert fast.flow_proto == full.flow_proto == "udp"
        assert fast.transport_payload == full.transport_payload
        assert canonical_key(fast) == canonical_key(full)

    def test_truncated_ipv4_raises_like_full_tier(self):
        # A snaplen-clipped record must fail the audit loudly (as the
        # full tier always did), not silently vanish from the flows.
        frame = _tcp_capture([(Ipv4Address.parse("10.0.0.1"),
                               Ipv4Address.parse("10.0.0.2"),
                               1234, 443, b"p" * 200)])[0]
        clipped = CapturedPacket(1, frame.data[:64])
        with pytest.raises(ValueError):
            decode_packet(clipped)
        with pytest.raises(ValueError):
            lazy_decode(clipped)

    def test_snaplen_truncated_capture_fails_audit(self):
        import io
        from repro.analysis import AuditPipeline
        frame = _tcp_capture([(Ipv4Address.parse("192.168.1.5"),
                               Ipv4Address.parse("203.0.113.1"),
                               1234, 443, b"p" * 400)])[0]
        buffer = io.BytesIO()
        PcapWriter(buffer, snaplen=60).write(frame)
        with pytest.raises(ValueError):
            AuditPipeline.from_pcap_bytes(
                buffer.getvalue(), Ipv4Address.parse("192.168.1.5"))

    def test_non_ip_frame_has_no_flow_key(self):
        frame = EthernetFrame(MAC_A, MAC_B, 0x0806, b"\x00" * 28).encode()
        fast = lazy_decode(CapturedPacket(1, frame))
        assert fast.flow_proto is None
        assert fast.src_ip is None
        assert canonical_key(fast) is None
        capture = ColumnarCapture.from_pcap_bytes(
            dump_bytes([CapturedPacket(1, frame)]))
        assert capture.flow_keys(0, 1) == set()

    def test_dns_parses_in_place(self):
        from repro.net import DnsMessage
        query = DnsMessage.query(77, "acr0.samsungcloudsolution.com")
        packet = CapturedPacket(3, build_udp_frame(
            MAC_A, MAC_B, Ipv4Address.parse("192.168.1.2"),
            Ipv4Address.parse("8.8.8.8"), 40000, 53, query.encode()))
        fast = lazy_decode(packet)
        full = decode_packet(packet)
        assert fast.dns is not None
        assert fast.dns.questions[0].name == full.dns.questions[0].name

    @given(st.lists(st.tuples(addresses, addresses, ports, ports),
                    min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_flow_tables_identical_across_tiers(self, tuples):
        packets = _tcp_capture([(s, d, sp, dp, b"x")
                                for s, d, sp, dp in tuples])
        capture = ColumnarCapture.from_pcap_bytes(dump_bytes(packets))
        assert flow_keys(lazy_decode_all(packets)) == \
            flow_keys(decode_packet(p) for p in packets) == \
            capture.flow_keys(0, len(capture))


class TestFingerprintMemo:
    def test_cache_returns_equal_captures(self):
        from repro.acr.fingerprint import (capture_batch, capture_state,
                                           clear_fingerprint_cache)
        from repro.media.content import ContentItem, ContentKind, PlayState
        item = ContentItem("c1", "Title", ContentKind.SHOW, 600, "news")
        state = PlayState(item, 123.4)
        clear_fingerprint_cache()
        cold, = capture_batch(item, [123.4], [10])
        warm, = capture_batch(item, [123.4], [20])
        assert warm.video_hash == cold.video_hash
        assert warm.audio_hashes == cold.audio_hashes
        assert (cold.offset_ns, warm.offset_ns) == (10, 20)
        # Mutating one capture's landmarks must not poison the memo.
        warm.audio_hashes.append(0xDEAD)
        assert capture_state(state).audio_hashes == cold.audio_hashes
        clear_fingerprint_cache()

    def test_capture_state_is_the_batch_capture_at_offset_0(self):
        from repro.acr.fingerprint import (capture_batch, capture_state,
                                           clear_fingerprint_cache)
        from repro.media.content import ContentItem, ContentKind, PlayState
        item = ContentItem("c1", "Title", ContentKind.SHOW, 600, "news")
        clear_fingerprint_cache()
        single = capture_state(PlayState(item, 42.0))
        batched, = capture_batch(item, [42.0], [0])
        assert single.offset_ns == 0
        assert (single.video_hash, single.audio_hashes) == \
            (batched.video_hash, batched.audio_hashes)
        clear_fingerprint_cache()

    def test_batch_shares_memo_but_never_landmark_lists(self):
        from repro.acr.fingerprint import (capture_batch, capture_state,
                                           clear_fingerprint_cache)
        from repro.media.content import ContentItem, ContentKind, PlayState
        item = ContentItem("c1", "Title", ContentKind.SHOW, 600, "news")
        clear_fingerprint_cache()
        first, again = capture_batch(item, [123.4, 123.9], [7, 8])
        single = capture_state(PlayState(item, 123.4))
        assert (first.video_hash, first.audio_hashes) == \
            (again.video_hash, again.audio_hashes) == \
            (single.video_hash, single.audio_hashes)
        assert (first.offset_ns, again.offset_ns) == (7, 8)
        assert first.audio_hashes is not again.audio_hashes
        first.audio_hashes.append(0xDEAD)
        assert capture_batch(item, [123.0])[0].audio_hashes == \
            single.audio_hashes
        clear_fingerprint_cache()
