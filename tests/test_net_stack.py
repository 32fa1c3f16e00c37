"""Integration tests for the host stack: DNS exchanges and TLS sessions
produce well-formed, decodable, causally-ordered captures."""

import pytest

from capture_tap import Tap
from packet_oracle import decode_all, dump_bytes, extract_sni, load_bytes
from repro.net import (ColumnarCapture, DnsRecord, HostStack, Ipv4Address,
                       TlsSession, mac_from_seed)
from repro.net.link import LatencyModel
from repro.net.tcp import FLAG_ACK, FLAG_FIN, FLAG_SYN
from repro.net.tls import TlsRecord
from repro.sim import RngRegistry, seconds

TV_IP = Ipv4Address.parse("192.168.1.50")
RESOLVER_IP = Ipv4Address.parse("192.168.1.1")
SERVER_IP = Ipv4Address.parse("203.0.113.10")
SERVER_NAME = "eu-acr4.alphonso.tv"


@pytest.fixture
def env():
    rng = RngRegistry(42)
    latency = LatencyModel("uk", rng)
    latency.register_server(SERVER_IP, "amsterdam")
    latency.register_server(RESOLVER_IP, "london")
    captured = Tap()
    stack = HostStack(mac_from_seed(1), TV_IP, mac_from_seed(2),
                      latency, rng, captured.log)
    return stack, captured


class TestDnsExchange:
    def test_query_and_response_captured(self, env):
        stack, captured = env
        stack.dns_exchange(0, RESOLVER_IP, SERVER_NAME,
                           [DnsRecord.a(SERVER_NAME, SERVER_IP)])
        decoded = decode_all(captured)
        assert len(decoded) == 2
        query, response = decoded
        assert query.dns is not None and not query.dns.is_response
        assert response.dns is not None and response.dns.is_response
        assert response.dns.answers[0].address == SERVER_IP

    def test_response_after_query(self, env):
        stack, captured = env
        q_ts, r_ts = stack.dns_exchange(
            seconds(1), RESOLVER_IP, SERVER_NAME,
            [DnsRecord.a(SERVER_NAME, SERVER_IP)])
        assert r_ts > q_ts >= seconds(1)

    def test_txid_matches(self, env):
        stack, captured = env
        stack.dns_exchange(0, RESOLVER_IP, SERVER_NAME,
                           [DnsRecord.a(SERVER_NAME, SERVER_IP)])
        query, response = decode_all(captured)
        assert query.dns.txid == response.dns.txid


class TestTlsSession:
    def test_handshake_packets(self, env):
        stack, captured = env
        session = TlsSession.open(stack, 0, SERVER_IP, SERVER_NAME)
        assert session.established_at is not None
        decoded = decode_all(captured)
        flags = [p.tcp.flags for p in decoded if p.tcp]
        assert flags[0] == FLAG_SYN
        assert flags[1] == FLAG_SYN | FLAG_ACK
        assert flags[2] == FLAG_ACK

    def test_sni_visible_in_capture(self, env):
        stack, captured = env
        TlsSession.open(stack, 0, SERVER_IP, SERVER_NAME)
        snis = []
        for packet in decode_all(captured):
            if packet.tcp and packet.tcp.payload:
                records, __ = TlsRecord.decode_stream(packet.tcp.payload)
                snis.extend(extract_sni(r) for r in records)
        assert SERVER_NAME in [s for s in snis if s]

    def test_exchange_volume_scales_with_payload(self, env):
        stack, captured = env
        session = TlsSession.open(stack, 0, SERVER_IP, SERVER_NAME)
        before = sum(len(p.data) for p in captured)
        session.exchange(session.established_at + 1, 20000, 500)
        after = sum(len(p.data) for p in captured)
        wire = after - before
        assert 20500 < wire < 20500 * 1.2  # payload plus bounded overhead

    def test_timestamps_monotonic_per_direction(self, env):
        stack, captured = env
        session = TlsSession.open(stack, 0, SERVER_IP, SERVER_NAME)
        session.exchange(session.established_at + 1, 5000, 400)
        session.close(session.established_at + seconds(1))
        decoded = decode_all(captured)
        outbound = [p.timestamp for p in decoded if p.src_ip == TV_IP]
        inbound = [p.timestamp for p in decoded if p.dst_ip == TV_IP]
        assert outbound == sorted(outbound)
        assert inbound == sorted(inbound)
        # The capture is in time order; each direction's IP ids count
        # up in emission order, so they stay consecutive only if the
        # stack's timestamps rose with every packet it emitted.
        for side in (TV_IP, SERVER_IP):
            ids = [p.ip.identification for p in decoded if p.src_ip == side]
            assert all((b - a) & 0xFFFF == 1 for a, b in zip(ids, ids[1:]))

    def test_close_emits_fin_handshake(self, env):
        stack, captured = env
        session = TlsSession.open(stack, 0, SERVER_IP, SERVER_NAME)
        session.close(session.established_at + 10)
        fins = [p for p in decode_all(captured)
                if p.tcp and p.tcp.flags & FLAG_FIN]
        assert len(fins) == 2  # one each direction
        assert session.closed

    def test_exchange_after_close_rejected(self, env):
        stack, captured = env
        session = TlsSession.open(stack, 0, SERVER_IP, SERVER_NAME)
        session.close(session.established_at + 10)
        with pytest.raises(RuntimeError):
            session.exchange(seconds(10), 100, 100)

    def test_exchange_before_establishment_rejected(self, env):
        stack, __ = env
        session = TlsSession(stack, SERVER_IP, SERVER_NAME, 40000, 443)
        with pytest.raises(RuntimeError):
            session.exchange(0, 10, 10)

    def test_seq_numbers_consistent(self, env):
        """Client seq advances by exactly the bytes carried."""
        stack, captured = env
        session = TlsSession.open(stack, 0, SERVER_IP, SERVER_NAME)
        session.exchange(session.established_at + 1, 3000, 100)
        decoded = decode_all(captured)
        client_data = [p.tcp for p in decoded
                       if p.tcp and p.src_ip == TV_IP and p.tcp.payload]
        for first, second in zip(client_data, client_data[1:]):
            assert second.seq == (first.seq + len(first.payload)) \
                & 0xFFFFFFFF


class TestCaptureRealism:
    def test_full_session_survives_pcap_roundtrip(self, env):
        stack, captured = env
        stack.dns_exchange(0, RESOLVER_IP, SERVER_NAME,
                           [DnsRecord.a(SERVER_NAME, SERVER_IP)])
        session = TlsSession.open(stack, seconds(1), SERVER_IP, SERVER_NAME)
        session.exchange(session.established_at + 1, 18000, 600)
        session.close(session.established_at + seconds(2))
        packets = sorted(captured, key=lambda p: p.timestamp)
        raw = dump_bytes(packets)
        assert len(load_bytes(raw)) == len(packets)
        capture = ColumnarCapture.from_pcap_bytes(raw)
        # one DNS flow + one TLS flow
        assert len(capture.flow_keys(0, len(capture))) == 2
