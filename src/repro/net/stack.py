"""Host network stack: synthesizes complete, timestamped packet exchanges.

Device models call high-level operations (resolve a name, open a TLS
session, exchange payloads, keep a connection alive); the stack emits every
packet of both directions — handshakes, segmentation, ACKs, teardown — with
capture timestamps as seen at the access point tap, as one row each in the
AP's capture log (:mod:`repro.net.capture`).  The resulting capture is
indistinguishable, for the paper's analysis pipeline, from a tcpdump of a
physical TV.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim.clock import microseconds
from ..sim.rng import RngRegistry
from .addresses import Ipv4Address, MacAddress
from .capture import CaptureLog
from .dns import DnsMessage, DnsRecord
from .link import LatencyModel
from .packet import build_tcp_frame, build_udp_frame
from .tcp import (FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN, TcpSegment)
from .tls import (AEAD_OVERHEAD, TlsRecord, application_records,
                  handshake_flights)

MSS = 1460
EPHEMERAL_BASE = 40000
PROCESSING_NS = microseconds(150)


class HostStack:
    """The TV-side network stack, logging into the AP's capture log."""

    def __init__(self, mac: MacAddress, ip: Ipv4Address,
                 gateway_mac: MacAddress, latency: LatencyModel,
                 rng: RngRegistry, log: CaptureLog) -> None:
        self.mac = mac
        self.ip = ip
        self.gateway_mac = gateway_mac
        self.latency = latency
        self.rng = rng
        self.log = log
        self._next_port = EPHEMERAL_BASE
        self._ip_id = rng.bounded_int("stack:ipid", 0, 0xFFFF)
        self._remote_ip_id = rng.bounded_int("stack:remote-ipid", 0, 0xFFFF)
        self._dns_txid = rng.bounded_int("stack:dns-txid", 0, 0xFFFF)
        # The TV's radio and the AP's delivery queue each serialize frames,
        # so capture timestamps are monotonic per direction even when
        # latency jitter would say otherwise.
        self._last_out_ts = -1
        self._last_in_ts = -1

    def _serialize_out(self, ts: int) -> int:
        ts = max(ts, self._last_out_ts + 1_000)
        self._last_out_ts = ts
        return ts

    def _serialize_in(self, ts: int) -> int:
        ts = max(ts, self._last_in_ts + 1_000)
        self._last_in_ts = ts
        return ts

    # -- low-level helpers ------------------------------------------------

    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        if self._next_port > 65000:
            self._next_port = EPHEMERAL_BASE
        return port

    def _next_ip_id(self) -> int:
        self._ip_id = (self._ip_id + 1) & 0xFFFF
        return self._ip_id

    def _next_remote_ip_id(self) -> int:
        self._remote_ip_id = (self._remote_ip_id + 1) & 0xFFFF
        return self._remote_ip_id

    def _emit_outbound_frame(self, at: int, frame: bytes) -> int:
        ts = self._serialize_out(at + self.latency.wifi_hop_ns())
        self.log.frame(ts, frame)
        return ts

    def _emit_inbound_frame(self, at: int, frame: bytes) -> int:
        ts = self._serialize_in(at)
        self.log.frame(ts, frame)
        return ts

    def emit_outbound_udp(self, at: int, dst_ip: Ipv4Address,
                          src_port: int, dst_port: int,
                          payload: bytes) -> int:
        """TV -> Internet UDP datagram; returns capture timestamp."""
        return self._emit_outbound_frame(at, build_udp_frame(
            self.mac, self.gateway_mac, self.ip, dst_ip, src_port,
            dst_port, payload, identification=self._next_ip_id()))

    def emit_inbound_udp(self, at: int, src_ip: Ipv4Address,
                         src_port: int, dst_port: int,
                         payload: bytes, ttl: int = 57) -> int:
        """Internet -> TV UDP datagram; returns capture timestamp."""
        return self._emit_inbound_frame(at, build_udp_frame(
            self.gateway_mac, self.mac, src_ip, self.ip, src_port,
            dst_port, payload, identification=self._next_remote_ip_id(),
            ttl=ttl))

    def emit_outbound_segment(self, at: int, dst_ip: Ipv4Address,
                              segment: TcpSegment) -> int:
        """TV -> Internet segment through the object codec (the SYN,
        whose MSS option the capture log's fixed layout lacks)."""
        return self._emit_outbound_frame(at, build_tcp_frame(
            self.mac, self.gateway_mac, self.ip, dst_ip, segment,
            identification=self._next_ip_id()))

    def emit_inbound_segment(self, at: int, src_ip: Ipv4Address,
                             segment: TcpSegment, ttl: int = 57) -> int:
        """Internet -> TV segment through the object codec (SYN-ACK)."""
        return self._emit_inbound_frame(at, build_tcp_frame(
            self.gateway_mac, self.mac, src_ip, self.ip, segment,
            identification=self._next_remote_ip_id(), ttl=ttl))

    def tcp_flows(self, remote_ip: Ipv4Address, local_port: int,
                  remote_port: int, ttl: int = 57) -> Tuple[int, int]:
        """Capture-log flow ids of a connection's outbound and inbound
        directions."""
        log = self.log
        return (log.flow(self.mac, self.gateway_mac, self.ip, remote_ip,
                         local_port, remote_port, 64),
                log.flow(self.gateway_mac, self.mac, remote_ip, self.ip,
                         remote_port, local_port, ttl))

    def emit_outbound_tcp(self, at: int, flow: int, seq: int, ack: int,
                          flags: int, payload: bytes = b"") -> int:
        """TV -> Internet option-less segment; returns capture
        timestamp."""
        ip_id = self._next_ip_id()
        ts = self._serialize_out(at + self.latency.wifi_hop_ns())
        self.log.tcp(ts, flow, ip_id, seq, ack, flags, payload)
        return ts

    def emit_inbound_tcp(self, at: int, flow: int, seq: int, ack: int,
                         flags: int, payload: bytes = b"") -> int:
        """Internet -> TV option-less segment; returns capture
        timestamp."""
        ts = self._serialize_in(at)
        self.log.tcp(ts, flow, self._next_remote_ip_id(), seq, ack, flags,
                     payload)
        return ts

    # -- DNS ---------------------------------------------------------------

    def dns_exchange(self, at: int, resolver_ip: Ipv4Address, name: str,
                     answers: List[DnsRecord],
                     rcode: int = 0) -> Tuple[int, int]:
        """One DNS query/response round trip.

        Returns (query_ts, response_ts).  ``answers`` comes from the
        simulated DNS infrastructure (:mod:`repro.dnsinfra`).
        """
        self._dns_txid = (self._dns_txid + 1) & 0xFFFF
        query = DnsMessage.query(self._dns_txid, name)
        src_port = self.allocate_port()
        query_ts = self.emit_outbound_udp(
            at, resolver_ip, src_port, 53, query.encode())
        response = DnsMessage.response(query, answers, rcode)
        response_ts = query_ts + self.latency.rtt_ns(resolver_ip) \
            + PROCESSING_NS
        self.emit_inbound_udp(response_ts, resolver_ip, 53, src_port,
                              response.encode())
        return query_ts, response_ts


class TlsSession:
    """An established TLS-over-TCP session between the TV and a server.

    Created via :meth:`open`, which emits the TCP handshake and TLS flights.
    All timestamps are "as captured at the AP".
    """

    def __init__(self, stack: HostStack, server_ip: Ipv4Address,
                 server_name: str, client_port: int,
                 server_port: int) -> None:
        self.stack = stack
        self.server_ip = server_ip
        self.server_name = server_name
        self.client_port = client_port
        self.server_port = server_port
        self.client_seq = stack.rng.bounded_int(
            f"tls:{server_name}:cseq", 1, 0xFFFF0000)
        self.server_seq = stack.rng.bounded_int(
            f"tls:{server_name}:sseq", 1, 0xFFFF0000)
        self._out, self._in = stack.tcp_flows(server_ip, client_port,
                                              server_port)
        self.established_at: Optional[int] = None
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- session establishment --------------------------------------------

    @classmethod
    def open(cls, stack: HostStack, at: int, server_ip: Ipv4Address,
             server_name: str, server_port: int = 443,
             certificate_size: int = 2800) -> "TlsSession":
        """TCP three-way handshake + TLS 1.2 handshake; returns the session.

        ``session.established_at`` is the capture time of the client
        Finished flight, after which :meth:`exchange` may be called.
        """
        session = cls(stack, server_ip, server_name,
                      stack.allocate_port(), server_port)
        owd = stack.latency.one_way_ns(server_ip)

        syn = TcpSegment(session.client_port, server_port,
                         session.client_seq, 0, FLAG_SYN, mss_option=MSS)
        ts = stack.emit_outbound_segment(at, server_ip, syn)
        session.client_seq += 1

        synack = TcpSegment(server_port, session.client_port,
                            session.server_seq, session.client_seq,
                            FLAG_SYN | FLAG_ACK, mss_option=MSS)
        ts = stack.emit_inbound_segment(ts + 2 * owd + PROCESSING_NS,
                                        server_ip, synack)
        session.server_seq += 1

        ts = stack.emit_outbound_tcp(ts + PROCESSING_NS, session._out,
                                     session.client_seq, session.server_seq,
                                     FLAG_ACK)

        client_random = stack.rng.token_bytes(
            f"tls:{server_name}:crandom", 32)
        server_filler = stack.rng.token_bytes(
            f"tls:{server_name}:sfiller", 200 + certificate_size)
        flight1, flight2, flight3 = handshake_flights(
            server_name, client_random, server_filler, certificate_size)

        ts = session._send_records(ts + PROCESSING_NS, flight1)
        ts = session._recv_records(ts + 2 * owd + PROCESSING_NS, flight2)
        ts = session._send_records(ts + PROCESSING_NS, flight3)
        # Server CCS + Finished
        finish = [TlsRecord(20, b"\x01"),
                  TlsRecord(22, stack.rng.token_bytes(
                      f"tls:{server_name}:sfin", 40))]
        ts = session._recv_records(ts + 2 * owd + PROCESSING_NS, finish)
        session.established_at = ts
        return session

    # -- record transport ---------------------------------------------------

    def _segments_for(self, records: List[TlsRecord]) -> List[bytes]:
        """Concatenate record bytes and cut into MSS-sized chunks."""
        blob = b"".join(record.encode() for record in records)
        return [blob[i:i + MSS] for i in range(0, len(blob), MSS)] or [b""]

    def _send_records(self, at: int, records: List[TlsRecord]) -> int:
        """Client -> server records, with server ACKs. Returns last ts.

        Segments leave the sender back-to-back (serialization-spaced), so
        the whole flight lands inside a millisecond or two at the tap —
        the spikes Figure 4 bins at per-ms resolution.  Only the send
        clock advances per segment; the Wi-Fi hop applies per packet, not
        cumulatively.
        """
        chunks = self._segments_for(records)
        owd = self.stack.latency.one_way_ns(self.server_ip)
        send_ts = at
        last_captured = at
        for index, chunk in enumerate(chunks):
            flags = FLAG_ACK | (FLAG_PSH if index == len(chunks) - 1 else 0)
            last_captured = self.stack.emit_outbound_tcp(
                send_ts, self._out, self.client_seq, self.server_seq,
                flags, chunk)
            self.client_seq = (self.client_seq + len(chunk)) & 0xFFFFFFFF
            self.bytes_sent += len(chunk)
            send_ts += self.stack.latency.serialization_ns(len(chunk))
            # Delayed ACK: every second segment and the final one.
            if index % 2 == 1 or index == len(chunks) - 1:
                last_captured = max(last_captured, self.stack.emit_inbound_tcp(
                    last_captured + 2 * owd, self._in, self.server_seq,
                    self.client_seq, FLAG_ACK))
        return last_captured

    def _recv_records(self, at: int, records: List[TlsRecord]) -> int:
        """Server -> client records, with client ACKs. Returns last ts."""
        chunks = self._segments_for(records)
        send_ts = at
        last_captured = at
        for index, chunk in enumerate(chunks):
            flags = FLAG_ACK | (FLAG_PSH if index == len(chunks) - 1 else 0)
            last_captured = self.stack.emit_inbound_tcp(
                send_ts, self._in, self.server_seq, self.client_seq,
                flags, chunk)
            self.server_seq = (self.server_seq + len(chunk)) & 0xFFFFFFFF
            self.bytes_received += len(chunk)
            send_ts = max(send_ts + self.stack.latency.serialization_ns(
                len(chunk)), last_captured)
            if index % 2 == 1 or index == len(chunks) - 1:
                last_captured = max(last_captured, self.stack.emit_outbound_tcp(
                    send_ts, self._out, self.client_seq, self.server_seq,
                    FLAG_ACK))
        return last_captured

    # -- application operations ---------------------------------------------

    def exchange(self, at: int, request_len: int,
                 response_len: int) -> int:
        """Application request/response over the session; returns last ts."""
        self._ensure_open()
        owd = self.stack.latency.one_way_ns(self.server_ip)
        label = f"tls:{self.server_name}:app"
        n_req_records = max(1, -(-request_len // 16368))
        request_filler = self.stack.rng.token_bytes(
            label, request_len + n_req_records * AEAD_OVERHEAD)
        ts = self._send_records(at, application_records(request_len,
                                                        request_filler))
        if response_len > 0:
            n_resp_records = max(1, -(-response_len // 16368))
            response_filler = self.stack.rng.token_bytes(
                label, response_len + n_resp_records * AEAD_OVERHEAD)
            ts = self._recv_records(
                ts + 2 * owd + PROCESSING_NS,
                application_records(response_len, response_filler))
        return ts

    def keepalive(self, at: int) -> int:
        """Small heartbeat record both ways; returns last capture ts."""
        return self.exchange(at, 32, 32)

    def tcp_keepalive(self, at: int) -> int:
        """RFC 1122 keep-alive probe: an empty ACK and its ACK reply."""
        self._ensure_open()
        owd = self.stack.latency.one_way_ns(self.server_ip)
        ts = self.stack.emit_outbound_tcp(
            at, self._out, (self.client_seq - 1) & 0xFFFFFFFF,
            self.server_seq, FLAG_ACK)
        return self.stack.emit_inbound_tcp(ts + 2 * owd, self._in,
                                           self.server_seq, self.client_seq,
                                           FLAG_ACK)

    def close(self, at: int) -> int:
        """FIN/ACK teardown in both directions; returns last ts."""
        self._ensure_open()
        owd = self.stack.latency.one_way_ns(self.server_ip)
        ts = self.stack.emit_outbound_tcp(at, self._out, self.client_seq,
                                          self.server_seq,
                                          FLAG_FIN | FLAG_ACK)
        self.client_seq += 1
        ts = self.stack.emit_inbound_tcp(ts + 2 * owd + PROCESSING_NS,
                                         self._in, self.server_seq,
                                         self.client_seq, FLAG_FIN | FLAG_ACK)
        self.server_seq += 1
        ts = self.stack.emit_outbound_tcp(ts + PROCESSING_NS, self._out,
                                          self.client_seq, self.server_seq,
                                          FLAG_ACK)
        self.closed = True
        return ts

    def _ensure_open(self) -> None:
        if self.established_at is None:
            raise RuntimeError("TLS session not established")
        if self.closed:
            raise RuntimeError("TLS session already closed")

    def __repr__(self) -> str:
        state = "closed" if self.closed else (
            "open" if self.established_at is not None else "connecting")
        return (f"TlsSession({self.server_name!r} @ {self.server_ip}, "
                f"{state}, sent={self.bytes_sent}B, "
                f"recv={self.bytes_received}B)")
