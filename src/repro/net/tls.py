"""TLS record layer for traffic synthesis and black-box inspection.

The paper never decrypts: its analysis extracts "traffic patterns from the
data captured ... without decrypting it".  We therefore model TLS at exactly
the fidelity the audit can observe:

* a realistic handshake exchange (ClientHello carrying a real SNI extension,
  ServerHello + Certificate + Finished flights with plausible sizes),
* opaque application-data records whose sizes equal ciphertext sizes
  (plaintext + AEAD tag + record header).

A passive observer can parse record headers and the SNI from the
ClientHello — the same vantage point mitmproxy-without-keys or tcpdump
would give the paper's authors (``tests/packet_oracle.py`` parses it).
"""

from __future__ import annotations

from typing import List, Tuple

CONTENT_CHANGE_CIPHER_SPEC = 20
CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION_DATA = 23

HANDSHAKE_CLIENT_HELLO = 1

VERSION_TLS12 = 0x0303

RECORD_HEADER_LEN = 5
AEAD_OVERHEAD = 16  # GCM tag
MAX_RECORD_PAYLOAD = 16384
CERTIFICATE_SIZE = 2800  # bytes of the server's Certificate record


class TlsRecord:
    """One TLS 1.2 record: content type and payload."""

    __slots__ = ("content_type", "payload")

    def __init__(self, content_type: int, payload: bytes) -> None:
        if len(payload) > MAX_RECORD_PAYLOAD + 256:
            raise ValueError(f"TLS record too large: {len(payload)}")
        self.content_type = content_type
        self.payload = payload

    def encode(self) -> bytes:
        return (bytes([self.content_type])
                + VERSION_TLS12.to_bytes(2, "big")
                + len(self.payload).to_bytes(2, "big")
                + self.payload)

    def __len__(self) -> int:
        return RECORD_HEADER_LEN + len(self.payload)

    def __repr__(self) -> str:
        return (f"TlsRecord(type={self.content_type}, "
                f"{len(self.payload)}B)")


def build_client_hello(server_name: str, client_random: bytes) -> TlsRecord:
    """A ClientHello record carrying a server_name (SNI) extension."""
    if len(client_random) != 32:
        raise ValueError("client random must be 32 bytes")
    sni_host = server_name.encode("ascii")
    sni_entry = bytes([0]) + len(sni_host).to_bytes(2, "big") + sni_host
    sni_list = len(sni_entry).to_bytes(2, "big") + sni_entry
    sni_ext = (0).to_bytes(2, "big") + len(sni_list).to_bytes(2, "big") \
        + sni_list
    extensions = len(sni_ext).to_bytes(2, "big") + sni_ext
    cipher_suites = bytes.fromhex("0004c02bc02f")  # 2 suites, length 4
    body = (
        VERSION_TLS12.to_bytes(2, "big")
        + client_random
        + bytes([0])            # empty session id
        + cipher_suites
        + bytes([1, 0])         # compression: null only
        + extensions
    )
    handshake = (bytes([HANDSHAKE_CLIENT_HELLO])
                 + len(body).to_bytes(3, "big") + body)
    return TlsRecord(CONTENT_HANDSHAKE, handshake)


def application_records(plaintext_len: int,
                        filler: bytes) -> List[TlsRecord]:
    """Split a plaintext length into application-data records.

    ``filler`` supplies opaque bytes standing in for ciphertext; it must be
    at least ``plaintext_len + records * AEAD_OVERHEAD`` long.  Each record's
    on-wire size matches what real TLS would produce for the same plaintext.
    """
    if plaintext_len < 0:
        raise ValueError("negative plaintext length")
    records: List[TlsRecord] = []
    remaining = plaintext_len
    offset = 0
    while True:
        chunk = min(remaining, MAX_RECORD_PAYLOAD - AEAD_OVERHEAD)
        size = chunk + AEAD_OVERHEAD
        if offset + size > len(filler):
            raise ValueError("filler too short for ciphertext")
        records.append(TlsRecord(CONTENT_APPLICATION_DATA,
                                 filler[offset:offset + size]))
        offset += size
        remaining -= chunk
        if remaining <= 0:
            break
    return records


def handshake_flights(server_name: str, client_random: bytes,
                      server_filler: bytes) -> Tuple[
                          List[TlsRecord], List[TlsRecord], List[TlsRecord]]:
    """The three handshake flights as record lists.

    Returns (client_flight1, server_flight, client_flight2):
    ClientHello / ServerHello+Certificate+Done / ClientKeyExchange+CCS+Finished.
    Sizes approximate a TLS 1.2 ECDHE-RSA handshake, which dominates the
    byte counts in the paper's keep-alive-only scenarios.
    """
    client_hello = build_client_hello(server_name, client_random)
    # Server filler layout: ServerHello, Certificate, ServerHelloDone,
    # then the client's key exchange and Finished.
    done = 90 + CERTIFICATE_SIZE
    need = done + 4 + 16 + 75
    if len(server_filler) < need:
        raise ValueError(f"server filler too short: need {need}")
    server_hello = TlsRecord(CONTENT_HANDSHAKE, server_filler[:90])
    certificate = TlsRecord(CONTENT_HANDSHAKE, server_filler[90:done])
    server_done = TlsRecord(CONTENT_HANDSHAKE, server_filler[done:done + 4])
    client_kex = TlsRecord(CONTENT_HANDSHAKE,
                           server_filler[done + 4:done + 79])
    ccs = TlsRecord(CONTENT_CHANGE_CIPHER_SPEC, b"\x01")
    finished = TlsRecord(CONTENT_HANDSHAKE,
                         server_filler[done + 79:done + 95])
    return ([client_hello],
            [server_hello, certificate, server_done],
            [client_kex, ccs, finished])
