"""Unit tests for the TLS record layer and SNI extraction."""

import pytest

from packet_oracle import decode_stream, extract_sni
from repro.net import tls as tls_module
from repro.net.tls import (AEAD_OVERHEAD, CONTENT_APPLICATION_DATA,
                           CONTENT_HANDSHAKE, MAX_RECORD_PAYLOAD,
                           VERSION_TLS12, TlsRecord, application_records,
                           build_client_hello, handshake_flights)

RANDOM = bytes(range(32))


class TestRecordCodec:
    def test_encode_decode_stream(self):
        records = [TlsRecord(CONTENT_APPLICATION_DATA, b"a" * 100),
                   TlsRecord(CONTENT_HANDSHAKE, b"b" * 50)]
        raw = b"".join(r.encode() for r in records)
        decoded, rest = decode_stream(raw)
        assert rest == b""
        assert [r.content_type for r in decoded] == \
            [CONTENT_APPLICATION_DATA, CONTENT_HANDSHAKE]
        assert decoded[0].payload == b"a" * 100

    def test_partial_record_left_as_rest(self):
        raw = TlsRecord(23, b"x" * 10).encode()
        decoded, rest = decode_stream(raw[:-3])
        assert decoded == []
        assert rest == raw[:-3]

    def test_record_too_large_rejected(self):
        with pytest.raises(ValueError):
            TlsRecord(23, b"x" * (MAX_RECORD_PAYLOAD + 300))

    def test_len_includes_header(self):
        assert len(TlsRecord(23, b"x" * 10)) == 15

    def test_records_are_tls12(self):
        for content_type in (CONTENT_HANDSHAKE, CONTENT_APPLICATION_DATA):
            raw = TlsRecord(content_type, b"x").encode()
            assert raw[1:3] == VERSION_TLS12.to_bytes(2, "big")


class TestClientHello:
    def test_sni_roundtrip(self):
        record = build_client_hello("acr-eu-prd.samsungcloud.tv", RANDOM)
        assert extract_sni(record) == "acr-eu-prd.samsungcloud.tv"

    def test_bad_random_length(self):
        with pytest.raises(ValueError):
            build_client_hello("x.y", b"short")

    def test_sni_none_for_application_data(self):
        assert extract_sni(TlsRecord(23, b"\x00" * 64)) is None

    def test_sni_none_for_non_client_hello_handshake(self):
        record = TlsRecord(CONTENT_HANDSHAKE, b"\x02\x00\x00\x01\x00")
        assert extract_sni(record) is None

    def test_sni_tolerates_truncation(self):
        record = build_client_hello("eu-acr9.alphonso.tv", RANDOM)
        truncated = TlsRecord(CONTENT_HANDSHAKE, record.payload[:20])
        assert extract_sni(truncated) is None


class TestApplicationRecords:
    def _filler(self, n):
        return b"\xcc" * n

    def test_small_payload_single_record(self):
        records = application_records(100, self._filler(100 + AEAD_OVERHEAD))
        assert len(records) == 1
        assert len(records[0].payload) == 100 + AEAD_OVERHEAD

    def test_zero_length_payload_still_one_record(self):
        records = application_records(0, self._filler(AEAD_OVERHEAD))
        assert len(records) == 1
        assert len(records[0].payload) == AEAD_OVERHEAD

    def test_large_payload_splits(self):
        plaintext = 40000
        nrec = 3  # ceil(40000 / 16368)
        records = application_records(
            plaintext, self._filler(plaintext + nrec * AEAD_OVERHEAD))
        assert len(records) == nrec
        total_ciphertext = sum(len(r.payload) for r in records)
        assert total_ciphertext == plaintext + nrec * AEAD_OVERHEAD

    def test_filler_too_short(self):
        with pytest.raises(ValueError):
            application_records(100, self._filler(50))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            application_records(-1, b"")


class TestHandshakeFlights:
    def test_flight_structure(self):
        flight1, flight2, flight3 = handshake_flights(
            "tkacr3.alphonso.tv", RANDOM, b"\xaa" * 4000)
        assert extract_sni(flight1[0]) == "tkacr3.alphonso.tv"
        assert len(flight2) == 3  # hello, certificate, done
        assert len(flight3) == 3  # kex, ccs, finished
        cert = flight2[1]
        assert len(cert.payload) == 2800

    def test_custom_certificate_size(self, monkeypatch):
        monkeypatch.setattr(tls_module, "CERTIFICATE_SIZE", 4096)
        __, flight2, __ = handshake_flights("x.y", RANDOM, b"\xaa" * 6000)
        assert len(flight2[1].payload) == 4096

    def test_filler_too_short(self):
        with pytest.raises(ValueError):
            handshake_flights("x.y", RANDOM, b"\xaa" * 100)
