"""Unit + property tests for the pcap format: the oracle record writer
against the oracle's strict record reader, ``iter_records``, which
``tests/test_record_walk.py`` pins the production walk against."""

import io
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from packet_oracle import CapturedPacket, PcapWriter, dump_bytes, \
    iter_records
from repro.net import PcapError
from repro.net.pcap import LINKTYPE_ETHERNET, MAGIC_USEC


def _packets(n=5):
    return [CapturedPacket(i * 1_000_000, bytes([i]) * (20 + i))
            for i in range(n)]


def _walk(raw):
    """``(timestamp, frame bytes)`` of every record ``iter_records``
    yields."""
    return [(ts, raw[offset:offset + incl_len])
            for ts, offset, incl_len, __ in iter_records(raw)]


class TestRoundTrip:
    def test_memory_roundtrip(self):
        packets = _packets()
        loaded = _walk(dump_bytes(packets))
        assert len(loaded) == len(packets)
        for original, (__, data) in zip(packets, loaded):
            assert data == original.data

    def test_timestamp_microsecond_precision(self):
        packet = CapturedPacket(1_234_567_890, b"x" * 30)
        (timestamp, __), = _walk(dump_bytes([packet]))
        # nanoseconds are truncated to microseconds by the pcap format
        assert timestamp == 1_234_567_000

    def test_empty_capture(self):
        assert _walk(dump_bytes([])) == []

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=2 ** 40),
        st.binary(min_size=14, max_size=200)), max_size=20))
    def test_roundtrip_property(self, items):
        packets = [CapturedPacket(ts, data) for ts, data in items]
        loaded = _walk(dump_bytes(packets))
        assert [data for __, data in loaded] == [p.data for p in packets]


class TestHeader:
    def test_magic_and_linktype(self):
        raw = dump_bytes(_packets(1))
        magic, = struct.unpack("<I", raw[:4])
        assert magic == MAGIC_USEC
        linktype, = struct.unpack("<I", raw[20:24])
        assert linktype == LINKTYPE_ETHERNET

    def test_writer_counts(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        assert writer.count == 0
        writer.write_all(_packets(3))
        assert writer.count == 3

    def test_version(self):
        assert struct.unpack("<HH", dump_bytes([])[4:8]) == (2, 4)


class TestSnaplen:
    def test_writer_truncates_records_to_snaplen(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer, snaplen=64)
        writer.write(CapturedPacket(1_000_000, b"\xab" * 200))
        raw = buffer.getvalue()
        __, __, incl_len, orig_len = struct.unpack("<IIII", raw[24:40])
        assert (incl_len, orig_len) == (64, 200)
        assert raw[40:] == b"\xab" * 64

    def test_reader_returns_truncated_record(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer, snaplen=64)
        writer.write(CapturedPacket(0, bytes(range(200)) + b"z" * 56))
        loaded = _walk(buffer.getvalue())
        assert len(loaded) == 1
        assert loaded[0][1] == bytes(range(64))

    def test_short_packets_pass_through_unchanged(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer, snaplen=64)
        writer.write(CapturedPacket(0, b"ok" * 10))
        raw = buffer.getvalue()
        __, __, incl_len, orig_len = struct.unpack("<IIII", raw[24:40])
        assert (incl_len, orig_len) == (20, 20)
        assert _walk(raw)[0][1] == b"ok" * 10

    def test_default_snaplen_never_truncates_ethernet(self):
        packets = [CapturedPacket(0, b"\x01" * 1514)]
        assert _walk(dump_bytes(packets))[0][1] == b"\x01" * 1514

    def test_nonpositive_snaplen_rejected(self):
        with pytest.raises(ValueError):
            PcapWriter(io.BytesIO(), snaplen=0)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(PcapError):
            _walk(b"\x00" * 24)

    def test_truncated_global_header(self):
        with pytest.raises(PcapError):
            _walk(b"\xd4\xc3\xb2\xa1")

    def test_truncated_record(self):
        raw = dump_bytes(_packets(1))
        with pytest.raises(PcapError):
            _walk(raw[:-5])

    def test_truncated_record_header(self):
        raw = dump_bytes(_packets(1))
        # cut into the record header
        with pytest.raises(PcapError):
            _walk(raw[:24 + 8])

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            CapturedPacket(-1, b"")
