"""Unit + property tests for the Ethernet/IPv4/TCP/UDP codecs: every
encoder round-trips through the oracle decoders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from packet_oracle import (EthernetFrame, Ipv4Packet, TcpSegment,
                           UdpDatagram, decode_ethernet, decode_ipv4,
                           decode_tcp, decode_udp, flag_names,
                           internet_checksum, verify_checksum)
from repro.net import Ipv4Address, MacAddress
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ip import PROTO_TCP, PROTO_UDP
from repro.net.tcp import FLAG_ACK, FLAG_PSH, FLAG_SYN

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")
IP_A = Ipv4Address.parse("192.168.1.50")
IP_B = Ipv4Address.parse("203.0.113.10")


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example from RFC 1071 section 3.
        data = bytes.fromhex("00010203040506070809")
        checksum = internet_checksum(data)
        buffer = bytearray(data) + checksum.to_bytes(2, "big")
        assert verify_checksum(bytes(buffer))

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF


class TestEthernet:
    def test_roundtrip(self):
        frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, b"payload")
        decoded = decode_ethernet(frame.encode())
        assert decoded.dst == MAC_B
        assert decoded.src == MAC_A
        assert decoded.ethertype == ETHERTYPE_IPV4
        assert decoded.payload == b"payload"

    def test_too_short(self):
        with pytest.raises(ValueError):
            decode_ethernet(b"\x00" * 13)

    def test_len(self):
        frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, b"xy")
        assert len(frame) == 16

    @given(st.binary(max_size=512))
    def test_roundtrip_property(self, payload):
        frame = EthernetFrame(MAC_A, MAC_B, 0x0800, payload)
        assert decode_ethernet(frame.encode()).payload == payload


class TestIpv4:
    def test_roundtrip(self):
        packet = Ipv4Packet(IP_A, IP_B, PROTO_TCP, b"data", ttl=57,
                            identification=0x1234)
        decoded = decode_ipv4(packet.encode())
        assert decoded.src == IP_A
        assert decoded.dst == IP_B
        assert decoded.protocol == PROTO_TCP
        assert decoded.ttl == 57
        assert decoded.identification == 0x1234
        assert decoded.payload == b"data"

    def test_checksum_verified(self):
        raw = bytearray(Ipv4Packet(IP_A, IP_B, PROTO_UDP, b"x").encode())
        raw[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(ValueError):
            decode_ipv4(bytes(raw))

    def test_decode_without_verification_tolerates_corruption(self):
        raw = bytearray(Ipv4Packet(IP_A, IP_B, PROTO_UDP, b"x").encode())
        raw[8] ^= 0xFF
        decoded = decode_ipv4(bytes(raw), verify=False)
        assert decoded.ttl == 64 ^ 0xFF

    def test_not_ipv4(self):
        raw = bytearray(Ipv4Packet(IP_A, IP_B, 6, b"").encode())
        raw[0] = (6 << 4) | 5
        with pytest.raises(ValueError):
            decode_ipv4(bytes(raw))

    def test_truncated(self):
        with pytest.raises(ValueError):
            decode_ipv4(b"\x45\x00")

    def test_total_length_enforced(self):
        packet = Ipv4Packet(IP_A, IP_B, PROTO_TCP, b"hello")
        raw = packet.encode()
        assert int.from_bytes(raw[2:4], "big") == len(raw)

    @given(st.binary(max_size=1400))
    def test_roundtrip_property(self, payload):
        packet = Ipv4Packet(IP_A, IP_B, PROTO_TCP, payload)
        assert decode_ipv4(packet.encode()).payload == payload


class TestUdp:
    def test_roundtrip(self):
        datagram = UdpDatagram(40001, 53, b"query")
        decoded = decode_udp(datagram.encode(IP_A, IP_B))
        assert decoded.src_port == 40001
        assert decoded.dst_port == 53
        assert decoded.payload == b"query"

    def test_invalid_port(self):
        with pytest.raises(ValueError):
            UdpDatagram(70000, 53, b"")

    def test_truncated(self):
        with pytest.raises(ValueError):
            decode_udp(b"\x00" * 7)

    @given(st.binary(max_size=1200))
    def test_roundtrip_property(self, payload):
        datagram = UdpDatagram(1234, 5678, payload)
        decoded = decode_udp(datagram.encode(IP_A, IP_B))
        assert decoded.payload == payload


class TestTcp:
    def test_roundtrip_with_mss(self):
        segment = TcpSegment(40001, 443, seq=1000, ack=2000,
                             flags=FLAG_SYN, mss_option=1460)
        decoded = decode_tcp(segment.encode(IP_A, IP_B))
        assert decoded.src_port == 40001
        assert decoded.dst_port == 443
        assert decoded.seq == 1000
        assert decoded.ack == 2000
        assert decoded.flags == FLAG_SYN
        assert decoded.mss_option == 1460

    def test_roundtrip_payload(self):
        segment = TcpSegment(1, 2, 3, 4, FLAG_ACK | FLAG_PSH,
                             payload=b"tls bytes")
        decoded = decode_tcp(segment.encode(IP_A, IP_B))
        assert decoded.payload == b"tls bytes"
        assert decoded.mss_option == 0

    def test_seq_wraps(self):
        segment = TcpSegment(1, 2, (1 << 32) + 5, 0, FLAG_ACK)
        assert segment.seq == 5

    def test_flag_names(self):
        assert flag_names(FLAG_SYN | FLAG_ACK) == "SYN|ACK"
        assert flag_names(0) == "none"

    def test_truncated(self):
        with pytest.raises(ValueError):
            decode_tcp(b"\x00" * 19)

    @given(st.binary(max_size=1460),
           st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_property(self, payload, seq):
        segment = TcpSegment(40000, 443, seq, 77, FLAG_ACK, payload=payload)
        decoded = decode_tcp(segment.encode(IP_A, IP_B))
        assert decoded.payload == payload
        assert decoded.seq == seq
