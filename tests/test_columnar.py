"""Equivalence, error-surface and fuzz tests for the audit's one decode.

:class:`~repro.analysis.AuditPipeline` decodes a capture into columns
(:mod:`repro.net.columnar`).  That decode is only allowed to be *fast*:
every query the pipeline answers — domains, byte totals, flow keys,
upload timestamps, CDF curves — must equal :class:`OraclePipeline`, a
one-shot list-based pipeline over per-packet decodes, under
hypothesis-generated captures, malformed/snaplen-clipped frames (same
errors, same order as the ``LazyPacket`` reference), arbitrary segment
cuts (incremental == batch) and fuzzed bytes (mutated captures and
hostile DNS answers).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_oracle import flow_keys as oracle_flow_keys
from packet_oracle import (CapturedPacket, EthernetFrame, Ipv4Packet,
                           PcapWriter, TcpSegment, build_tcp_frame,
                           build_udp_frame, decode_all, dump_bytes,
                           lazy_decode, lazy_decode_all, load_bytes,
                           observe_all)
from packet_oracle import cumulative_bytes as oracle_cumulative_bytes
from repro.analysis import AuditPipeline
from repro.analysis.cdf import cumulative_bytes
from repro.faults import salvage_pcap_bytes
from repro.net import (ColumnarCapture, ColumnarSlice, DnsMessage, DnsRecord,
                       Ipv4Address, MacAddress, PcapError)
from repro.net.columnar import OTHER_IP_CLASS, FramesReleasedError
from repro.net.dns import TYPE_A, TYPE_CNAME, TYPE_PTR, encode_name
from repro.net.packet import LazyPacket

MAC_TV = MacAddress.parse("02:00:00:00:00:01")
MAC_GW = MacAddress.parse("02:00:00:00:00:02")

TV = Ipv4Address.parse("192.168.1.2")
GW = Ipv4Address.parse("192.168.1.1")
RESOLVER = Ipv4Address.parse("8.8.8.8")
REMOTES = [Ipv4Address.parse(f"203.0.113.{i}") for i in range(1, 6)]
NAMES = ["acr1.example.com", "tracker.example.net", "cdn.example.org"]

ports = st.integers(min_value=1024, max_value=65535)

#: IP protocols other than TCP and UDP (ICMP, GRE, ESP, SCTP): portless,
#: and all one flow-key class.
OTHER_PROTOCOLS = [1, 47, 50, 132]

#: One capture event: protocol, remote index, TV-originated?, port (or
#: IP protocol number), payload.
events = st.lists(
    st.one_of(
        st.tuples(st.just("tcp"), st.integers(0, 4), st.booleans(),
                  ports, st.binary(max_size=120)),
        st.tuples(st.just("udp"), st.integers(0, 4), st.booleans(),
                  ports, st.binary(max_size=120)),
        st.tuples(st.just("options"), st.integers(0, 4), st.booleans(),
                  ports, st.binary(max_size=40)),
        st.tuples(st.just("ip"), st.integers(0, 4), st.booleans(),
                  st.sampled_from(OTHER_PROTOCOLS),
                  st.binary(max_size=40)),
        st.tuples(st.just("dns"), st.integers(0, 2), st.integers(0, 4)),
        st.tuples(st.just("arp"), st.booleans()),
        st.tuples(st.just("noise"), st.integers(0, 4),
                  st.binary(max_size=40)),
    ),
    max_size=40)


def _with_options(frame):
    """The same IPv4 frame with 4 bytes of IP options (IHL = 24), a
    shape the vectorized gathers leave to the ``LazyPacket`` path."""
    framed = bytearray(frame)
    framed[14] = 0x46
    framed[16:18] = (int.from_bytes(frame[16:18], "big")
                     + 4).to_bytes(2, "big")
    framed[34:34] = bytes(4)
    return bytes(framed)


def _frames(items):
    """Expand events into a well-formed mixed capture."""
    packets = []
    for i, event in enumerate(items):
        ts = (i + 1) * 1_000_000  # whole microseconds survive pcap
        kind = event[0]
        if kind == "tcp":
            __, remote, from_tv, port, payload = event
            src, dst = (TV, REMOTES[remote]) if from_tv \
                else (REMOTES[remote], TV)
            sport, dport = (port, 443) if from_tv else (443, port)
            packets.append(CapturedPacket(ts, build_tcp_frame(
                MAC_TV, MAC_GW, src, dst,
                TcpSegment(sport, dport, i, 2, 0x18, payload=payload),
                identification=i & 0xFFFF)))
        elif kind in ("udp", "options"):
            __, remote, from_tv, port, payload = event
            src, dst = (TV, REMOTES[remote]) if from_tv \
                else (REMOTES[remote], TV)
            frame = build_udp_frame(MAC_TV, MAC_GW, src, dst, port, 7777,
                                    payload)
            packets.append(CapturedPacket(
                ts, _with_options(frame) if kind == "options" else frame))
        elif kind == "ip":
            __, remote, from_tv, protocol, payload = event
            src, dst = (TV, REMOTES[remote]) if from_tv \
                else (REMOTES[remote], TV)
            packets.append(CapturedPacket(ts, EthernetFrame(
                MAC_GW, MAC_TV, 0x0800, Ipv4Packet(
                    src, dst, protocol, payload,
                    identification=i & 0xFFFF).encode()).encode()))
        elif kind == "dns":
            __, name, remote = event
            query = DnsMessage.query(i & 0xFFFF, NAMES[name])
            answer = DnsMessage.response(
                query, [DnsRecord.a(NAMES[name], REMOTES[remote])])
            packets.append(_resolver_frame(ts, answer.encode()))
        elif kind == "arp":
            __, long = event
            # The long form takes the vectorized non-IP path; the short
            # one (< 38 bytes) must fall back to the reference decoder.
            payload = b"\x00" * (28 if long else 10)
            packets.append(CapturedPacket(ts, EthernetFrame(
                MAC_GW, MAC_TV, 0x0806, payload).encode()))
        else:  # noise: LAN traffic that never touches the TV
            __, remote, payload = event
            packets.append(CapturedPacket(ts, build_udp_frame(
                MAC_GW, MAC_GW, GW, REMOTES[remote], 5353, 5353,
                payload)))
    return packets


def _resolver_frame(ts: int, message: bytes) -> CapturedPacket:
    """A DNS answer from the resolver to the TV."""
    return CapturedPacket(ts, build_udp_frame(
        MAC_GW, MAC_TV, RESOLVER, TV, 53, 40000, message))


# -- the oracle ---------------------------------------------------------------


def infer_tv_ip(packets):
    """The device under audit is the most talkative private address."""
    counter = Counter(address for packet in packets
                      for address in (packet.src_ip, packet.dst_ip)
                      if address is not None and address.is_private)
    if not counter:
        raise ValueError("no private addresses in capture")
    return counter.most_common(1)[0][0]


class OraclePipeline:
    """The list-based audit pipeline, decoded and labelled in one shot:
    every packet to or from the TV is filed, in capture order, under its
    remote address's label in the capture's *complete* DNS map."""

    def __init__(self, packets, tv_ip=None):
        self.packets = list(packets)
        self.tv_ip = infer_tv_ip(self.packets) if tv_ip is None else tv_ip
        self.dns_map = observe_all(self.packets)
        self.index = {}
        for packet in self.packets:
            if self.tv_ip not in (packet.src_ip, packet.dst_ip):
                continue
            remote = packet.dst_ip if packet.src_ip == self.tv_ip \
                else packet.src_ip
            label = (f"lan:{remote}" if remote.is_private
                     else self.dns_map.label(remote))
            self.index.setdefault(label, []).append(packet)

    @classmethod
    def from_pcap_bytes(cls, raw, tv_ip=None, decode=decode_all):
        return cls(decode(load_bytes(raw)), tv_ip)

    def _domain_index(self):
        return self.index

    @property
    def contacted_domains(self):
        return sorted(name for name in self.index
                      if not name.startswith(("lan:", "unresolved:")))

    def packets_for(self, domain):
        return list(self.index.get(domain, ()))

    def packets_for_all(self, domains):
        return sorted((p for domain in domains
                       for p in self.index.get(domain, ())),
                      key=lambda p: p.timestamp)

    def bytes_for(self, domain):
        return sum(p.length for p in self.index.get(domain, ()))

    def bytes_sent_to(self, domain):
        return sum(p.length for p in self.index.get(domain, ())
                   if p.src_ip == self.tv_ip)

    def packet_count_for(self, domain):
        return len(self.index.get(domain, ()))

    def upload_timestamps(self, domains):
        return sorted(p.timestamp for p in self.packets_for_all(domains)
                      if p.src_ip == self.tv_ip)

    def byte_totals(self):
        return {domain: self.bytes_for(domain)
                for domain in self.contacted_domains}


def _answers(pipeline, domains):
    """Every query the pipeline answers, as plain values."""
    return {
        "packets": len(pipeline.packets),
        "labels": sorted(pipeline._domain_index()),
        "contacted": pipeline.contacted_domains,
        "totals": pipeline.byte_totals(),
        "per_domain": [(pipeline.bytes_for(domain),
                        pipeline.bytes_sent_to(domain),
                        pipeline.packet_count_for(domain),
                        [p.timestamp for p in pipeline.packets_for(domain)])
                       for domain in domains],
        "uploads": pipeline.upload_timestamps(domains),
        "all": [p.timestamp for p in pipeline.packets_for_all(domains)],
        "flows": (pipeline.packets.flow_keys(0, len(pipeline.packets))
                  if isinstance(pipeline, AuditPipeline)
                  else oracle_flow_keys(pipeline.packets)),
    }


def _assert_queries_agree(reference, pipeline):
    domains = sorted(set(reference._domain_index()) | {"ghost.example"})
    assert _answers(pipeline, domains) == _answers(reference, domains)


class TestRowEquivalence:
    """Every row field matches LazyPacket, byte for byte."""

    @given(events)
    @settings(max_examples=40, deadline=None)
    def test_fields_match_lazy_tier(self, items):
        raw = dump_bytes(_frames(items))
        capture = ColumnarCapture.from_pcap_bytes(raw)
        lazy = lazy_decode_all(load_bytes(raw))
        assert len(capture) == len(lazy)
        for view, ref in zip(capture, lazy):
            assert view.timestamp == ref.timestamp
            assert view.length == ref.length
            assert bytes(view.data) == bytes(ref.data)
            assert view.src_ip == ref.src_ip
            assert view.dst_ip == ref.dst_ip
            assert view.src_port == ref.src_port
            assert view.dst_port == ref.dst_port
            assert view.proto == ref.proto
            assert view.flow_proto == ref.flow_proto
            assert bytes(view.transport_payload) == \
                bytes(ref.transport_payload)
            mine, theirs = view.dns, ref.dns
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine.encode() == theirs.encode()

    def test_ipv4_options_row_takes_the_reference_path(self):
        # IHL > 20 defeats the vectorized gather; the row must fall
        # back to the LazyPacket reference and still agree exactly.
        framed = _with_options(build_udp_frame(
            MAC_TV, MAC_GW, TV, REMOTES[0], 40000, 7777, b"options"))
        raw = dump_bytes([CapturedPacket(1_000_000, framed)])
        view = ColumnarCapture.from_pcap_bytes(raw)[0]
        ref = LazyPacket(1_000_000, framed)
        assert view.src_ip == ref.src_ip
        assert view.dst_ip == ref.dst_ip
        assert (view.src_port, view.dst_port) == (ref.src_port,
                                                  ref.dst_port)
        assert bytes(view.transport_payload) == ref.transport_payload

    @given(events)
    @settings(max_examples=20, deadline=None)
    def test_infer_tv_ip_matches_object_tier(self, items):
        raw = dump_bytes(_frames(items))
        capture = ColumnarCapture.from_pcap_bytes(raw)
        try:
            expected = infer_tv_ip(decode_all(load_bytes(raw)))
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                capture.infer_tv_ip()
            with pytest.raises(ValueError, match=str(exc)):
                AuditPipeline.from_pcap_bytes(raw)
        else:
            assert capture.infer_tv_ip() == expected
            assert AuditPipeline.from_pcap_bytes(raw).tv_ip == expected


class TestPipelineEquivalence:
    @given(events)
    @settings(max_examples=30, deadline=None)
    def test_queries_identical_across_all_tiers(self, items):
        raw = dump_bytes(_frames(items))
        _assert_queries_agree(OraclePipeline.from_pcap_bytes(raw, TV),
                              AuditPipeline.from_pcap_bytes(raw, TV))

    @given(events, st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_cdf_curves_identical(self, items, sent_only):
        raw = dump_bytes(_frames(items))
        oracle = OraclePipeline.from_pcap_bytes(raw, TV)
        pipeline = AuditPipeline.from_pcap_bytes(raw, TV)
        domains = sorted(oracle._domain_index())
        window = (0, 60 * 1_000_000_000)
        sender = TV if sent_only else None
        reference = oracle_cumulative_bytes(
            oracle.packets_for_all(domains), *window, sent_only_from=sender)
        curve = cumulative_bytes(pipeline.packets_for_all(domains), *window,
                                 sent_only_from=sender)
        assert np.array_equal(curve.times_s, reference.times_s)
        assert np.array_equal(curve.cumulative_bytes,
                              reference.cumulative_bytes)
        assert curve.total_bytes == reference.total_bytes

    def test_unknown_domain_compares_equal_to_empty_list(self):
        raw = dump_bytes(_frames([("tcp", 0, True, 5000, b"x")]))
        pipeline = AuditPipeline.from_pcap_bytes(raw, TV)
        assert pipeline.packets_for("ghost.example") == []


class TestIncrementalSegments:
    @given(events, st.lists(st.integers(0, 40), max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_segment_cuts_equal_batch(self, items, cuts):
        packets = _frames(items)
        bounds = sorted({min(cut, len(packets)) for cut in cuts}
                        | {0, len(packets)})
        segments = [dump_bytes(packets[lo:hi])
                    for lo, hi in zip(bounds[:-1], bounds[1:])] \
            or [dump_bytes([])]
        grown = AuditPipeline.incremental(TV)
        assert sum(grown.extend_pcap_bytes(segment)
                   for segment in segments) == len(packets)
        raw = dump_bytes(packets)
        _assert_queries_agree(OraclePipeline.from_pcap_bytes(raw, TV),
                              grown)
        _assert_queries_agree(AuditPipeline.from_pcap_bytes(raw, TV),
                              grown)


def _cut_frame(proto, size):
    """A plain IPv4 frame of ``size`` bytes whose transport header is
    cut short, its IP total length matching the cut (so the row takes
    the vectorized path)."""
    if proto == "tcp":
        frame = bytearray(build_tcp_frame(
            MAC_TV, MAC_GW, TV, REMOTES[0],
            TcpSegment(40000, 443, 1, 2, 0x18, payload=b"x" * 40)))
    else:
        frame = bytearray(build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[0],
                                          40000, 7777, b"x" * 40))
    del frame[size:]
    frame[16:18] = (size - 14).to_bytes(2, "big")
    return bytes(frame)


class TestPayloadLengths:
    """``payload_lengths()`` is ``len(view.transport_payload)`` per row,
    from the columns once the frames are gone."""

    @given(events)
    @settings(max_examples=40, deadline=None)
    def test_one_shot_matches_views(self, items):
        capture = ColumnarCapture.from_pcap_bytes(dump_bytes(_frames(items)))
        assert capture.payload_lengths().tolist() == \
            [len(view.transport_payload) for view in capture]

    @given(events, st.lists(st.integers(0, 40), max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_segment_cuts_match_one_shot(self, items, cuts):
        packets = _frames(items)
        bounds = sorted({min(cut, len(packets)) for cut in cuts}
                        | {0, len(packets)})
        grown = ColumnarCapture()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            grown.extend_pcap_bytes(dump_bytes(packets[lo:hi]))
            # Asked between segments, then grown again.
            assert grown.payload_lengths().tolist() == \
                [len(view.transport_payload) for view in grown]
        whole = ColumnarCapture.from_pcap_bytes(dump_bytes(packets))
        assert grown.payload_lengths().tolist() == \
            whole.payload_lengths().tolist()

    @pytest.mark.parametrize("long", [False, True])
    def test_lone_arp_frame(self, long):
        # Its record ends the buffer before any transport byte would.
        capture = ColumnarCapture.from_pcap_bytes(
            dump_bytes(_frames([("arp", long)])))
        assert capture.payload_lengths().tolist() == [0]

    @pytest.mark.parametrize("size", range(38, 47))
    @pytest.mark.parametrize("last", [False, True])
    def test_tcp_header_cut_before_data_offset(self, size, last):
        # Bytes 0-37 are inside the record, the data offset (byte 46)
        # is not: a gather there would read the next record or run off
        # the buffer.
        rows = [_cut_frame("tcp", size)] + [
            p.data for p in _frames([("tcp", 1, True, 5000, b"\xf0" * 9),
                                     ("udp", 2, False, 6000, b"y")])]
        if last:
            rows.append(rows.pop(0))
        capture = ColumnarCapture.from_pcap_bytes(dump_bytes(
            [CapturedPacket((i + 1) * 1_000_000, frame)
             for i, frame in enumerate(rows)]))
        cut = len(rows) - 1 if last else 0
        assert capture.view(cut).proto == 6
        lengths = capture.payload_lengths().tolist()
        assert lengths[cut] == 0
        assert [n for i, n in enumerate(lengths) if i != cut] == [9, 1]
        assert len(capture.view(cut).transport_payload) == lengths[cut]
        assert len(lazy_decode(CapturedPacket(1, rows[cut]))
                   .transport_payload) == lengths[cut]

    @pytest.mark.parametrize("size", [38, 39, 40, 41])
    def test_udp_length_field_cut(self, size):
        capture = ColumnarCapture.from_pcap_bytes(dump_bytes(
            [CapturedPacket(1_000_000, _cut_frame("udp", size))]))
        assert capture.view(0).proto == 17
        assert capture.payload_lengths().tolist() == \
            [len(capture.view(0).transport_payload)]


class TestReleaseFrames:
    @given(events, st.lists(st.integers(0, 40), max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_queries_survive_release(self, items, cuts):
        packets = _frames(items)
        bounds = sorted({min(cut, len(packets)) for cut in cuts}
                        | {0, len(packets)})
        pipeline = AuditPipeline.incremental(TV)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pipeline.extend_pcap_bytes(dump_bytes(packets[lo:hi]))
        domains = sorted(pipeline._domain_index()) + ["ghost.example"]
        capture = pipeline.packets
        before = (_answers(pipeline, domains),
                  capture.payload_lengths().tolist())
        capture.release_frames()
        capture.release_frames()  # a second release changes nothing
        assert (_answers(pipeline, domains),
                capture.payload_lengths().tolist()) == before
        with pytest.raises(FramesReleasedError):
            capture.extend_pcap_bytes(dump_bytes(packets))
        if packets:
            view = capture.view(0)
            for read in (lambda: capture.frame(0), lambda: view.data,
                         lambda: view.transport_payload):
                with pytest.raises(FramesReleasedError):
                    read()


class TestFlowKeys:
    """The column flow keys follow the per-packet oracle's rule."""

    @given(events, st.lists(st.integers(0, 40), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_segment_keys_match_oracle_after_every_segment(self, items,
                                                           cuts):
        packets = _frames(items)
        bounds = sorted({min(cut, len(packets)) for cut in cuts}
                        | {0, len(packets)})
        capture = ColumnarCapture()
        seen = set()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            start, end = capture.extend_pcap_bytes(
                dump_bytes(packets[lo:hi]))
            seen |= capture.flow_keys(start, end)
            assert seen == oracle_flow_keys(decode_all(packets[:hi]))

    def test_other_ip_protocols_collapse_to_one_key(self):
        raw = dump_bytes(_frames([("ip", 0, True, 1, b"ping"),
                                  ("ip", 0, False, 47, b"tunnel"),
                                  ("ip", 0, True, 50, b"")]))
        capture = ColumnarCapture.from_pcap_bytes(raw)
        assert capture.flow_keys(0, len(capture)) == {
            (TV.value, 0, REMOTES[0].value, 0, OTHER_IP_CLASS)}

    def test_options_row_keys_like_plain_row(self):
        plain = ("udp", 1, True, 40000, b"payload")
        raw = dump_bytes(_frames([plain, ("options",) + plain[1:]]))
        capture = ColumnarCapture.from_pcap_bytes(raw)
        assert capture.flow_keys(0, 1) == capture.flow_keys(1, 2) == {
            (TV.value, 40000, REMOTES[1].value, 7777, 17)}

    def test_arp_rows_have_no_key(self):
        raw = dump_bytes(_frames([("arp", True), ("arp", False)]))
        capture = ColumnarCapture.from_pcap_bytes(raw)
        assert capture.flow_keys(0, len(capture)) == set()

    def test_household_ingest_tracks_every_applied_row(self):
        # Salvaged rows of a quarantined segment count; the record the
        # salvage drops does not.
        from repro.fleet import PopulationSpec
        from repro.service.auditor import HouseholdIngest
        from repro.service.segments import CaptureSegment
        household = next(iter(PopulationSpec(1, seed=21)))
        first = _frames([("dns", 0, 0), ("tcp", 0, True, 5000, b"a")])
        salvaged = _frames([("udp", 1, True, 6000, b"b")])
        dropped = bytearray(_frames([("udp", 2, True, 7000, b"c")])[0].data)
        dropped[14] = 0x41  # IHL = 4: the decode rejects this record
        ingest = HouseholdIngest(household, str(TV))
        ingest.ingest(CaptureSegment(household.index, 0, 2,
                                     dump_bytes(first)))
        assert ingest.tracked_flows == 2
        ingest.ingest(CaptureSegment(household.index, 1, 2, dump_bytes(
            salvaged + [CapturedPacket(9_000_000, bytes(dropped))])))
        assert len(ingest.findings) == 1
        assert ingest.flow_keys == oracle_flow_keys(
            decode_all(first + salvaged))
        assert ingest.tracked_flows == 3


class TestErrorSurface:
    """Bad frames raise exactly what LazyPacket raises, in capture
    order, and record-level errors win over frame-level ones."""

    @staticmethod
    def _assert_same_error(raw):
        with pytest.raises((PcapError, ValueError)) as expected:
            lazy_decode_all(load_bytes(raw))
        with pytest.raises(expected.type) as actual:
            AuditPipeline.from_pcap_bytes(raw, TV)
        assert str(actual.value) == str(expected.value)

    def test_snaplen_clipped_frame_raises_lazy_message(self):
        import io
        frame = build_tcp_frame(MAC_TV, MAC_GW, TV, REMOTES[0],
                                TcpSegment(5000, 443, 1, 2, 0x18,
                                           payload=b"p" * 400))
        buffer = io.BytesIO()
        PcapWriter(buffer, snaplen=60).write(
            CapturedPacket(1_000_000, frame))
        self._assert_same_error(buffer.getvalue())

    @pytest.mark.parametrize("clip", [20, 40, 64])
    def test_short_frames_raise_identical_messages(self, clip):
        frame = build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[1],
                                40000, 7777, b"y" * 100)
        self._assert_same_error(
            dump_bytes([CapturedPacket(1_000_000, frame[:clip])]))

    def test_first_bad_frame_wins(self):
        good = build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[0],
                               40000, 7777, b"ok")
        bad_ihl = bytearray(good)
        bad_ihl[14] = 0x41  # IHL = 4
        bad_version = bytearray(good)
        bad_version[14] = 0x65  # version 6
        raw = dump_bytes([
            CapturedPacket(1_000_000, good),
            CapturedPacket(2_000_000, bytes(bad_ihl)),
            CapturedPacket(3_000_000, bytes(bad_version))])
        with pytest.raises(ValueError, match="bad IHL: 4"):
            AuditPipeline.from_pcap_bytes(raw, TV)
        self._assert_same_error(raw)

    def test_pcap_error_precedes_frame_error(self):
        # The record walk finishes before any frame decodes, so a
        # truncated trailing record must mask an earlier malformed
        # frame.
        bad = bytearray(build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[0],
                                        40000, 7777, b"zz"))
        bad[14] = 0x65
        raw = dump_bytes([CapturedPacket(1_000_000, bytes(bad)),
                          CapturedPacket(2_000_000, bad_frame_tail())])
        truncated = raw[:-4]
        with pytest.raises(PcapError, match="truncated pcap record"):
            AuditPipeline.from_pcap_bytes(truncated, TV)
        self._assert_same_error(truncated)

    def test_implausible_record_length_matches_reader(self):
        raw = bytearray(dump_bytes(
            [CapturedPacket(1_000_000, b"\x00" * 20)]))
        raw[24 + 8:24 + 12] = (2 ** 31).to_bytes(4, "little")
        with pytest.raises(PcapError, match="implausible record length"):
            AuditPipeline.from_pcap_bytes(bytes(raw), TV)
        self._assert_same_error(bytes(raw))


def bad_frame_tail() -> bytes:
    return build_udp_frame(MAC_TV, MAC_GW, TV, REMOTES[1],
                           40001, 7777, b"tail")


class TestColumnarSlice:
    def _slice(self):
        raw = dump_bytes(_frames([
            ("dns", 0, 0),
            ("tcp", 0, True, 5000, b"a"),
            ("tcp", 0, False, 5000, b"bb"),
            ("tcp", 0, True, 5001, b"ccc")]))
        pipeline = AuditPipeline.from_pcap_bytes(raw, TV)
        return pipeline.packets_for(NAMES[0])

    def test_len_iter_getitem(self):
        result = self._slice()
        assert len(result) == 3
        assert [p.length for p in result] == \
            [result[i].length for i in range(3)]
        tail = result[1:]
        assert isinstance(tail, ColumnarSlice)
        assert len(tail) == 2
        assert tail[0].timestamp == result[1].timestamp

    def test_equality(self):
        result = self._slice()
        assert result == result[:]
        assert not result == result[1:]
        assert AuditPipeline.from_pcap_bytes(
            dump_bytes(_frames([])), TV).packets_for("nothing") == []


# -- hostile DNS answers --------------------------------------------------------

#: Offset of the question name in every message built below.
QNAME_AT = 12


def _pointer(offset):
    return bytes([0xC0 | (offset >> 8) & 0x3F, offset & 0xFF])


def _message(question, records):
    """A one-question DNS response written byte by byte.  ``records``
    are ``(owner, rtype, rdlength, rdata)``: nothing keeps the declared
    length honest, and owners or data may hold compression pointers."""
    out = bytearray(b"\x00\x07\x81\x80\x00\x01")
    out += len(records).to_bytes(2, "big") + bytes(4)
    out += encode_name(question) + b"\x00\x01\x00\x01"
    for owner, rtype, rdlength, rdata in records:
        out += (owner + rtype.to_bytes(2, "big") + b"\x00\x01"
                + bytes(4) + rdlength.to_bytes(2, "big") + rdata)
    return bytes(out)


def _upload(ts):
    return CapturedPacket(ts, build_tcp_frame(
        MAC_TV, MAC_GW, TV, REMOTES[0],
        TcpSegment(5000, 443, 1, 2, 0x18, payload=b"fingerprints")))


def _short_a_capture():
    """An A record with 2 bytes of data, then an upload."""
    message = _message(NAMES[0], [(_pointer(QNAME_AT), TYPE_A, 2,
                                   b"\xcb\x00")])
    return dump_bytes([_resolver_frame(1_000_000, message),
                       _upload(2_000_000)])


def _cname_capture(compressed):
    """``www.example.com`` CNAME ``acr1.example.com`` A REMOTES[0], then
    an upload to that address: names spelled out, or compressed (the
    target is "acr1" plus a pointer into the question, and the A
    record's owner points at that target)."""
    question = "www.example.com"
    if compressed:
        target = b"\x04acr1" + _pointer(QNAME_AT + 4)
        target_at = QNAME_AT + len(encode_name(question)) + 4 + 12
        cname_owner, a_owner = _pointer(QNAME_AT), _pointer(target_at)
    else:
        target = encode_name(NAMES[0])
        cname_owner, a_owner = encode_name(question), target
    message = _message(question, [
        (cname_owner, TYPE_CNAME, len(target), target),
        (a_owner, TYPE_A, 4, REMOTES[0].to_bytes())])
    return dump_bytes([_resolver_frame(1_000_000, message),
                       _upload(2_000_000)])


class TestHostileDns:
    """A DNS answer the codec refuses leaves its packet unlabelled on
    every path that audits a capture; compression is understood."""

    def test_short_a_record_batch_and_segment(self):
        raw = _short_a_capture()
        assert salvage_pcap_bytes(raw) == (raw, [])
        batch = AuditPipeline.from_pcap_bytes(raw, TV)
        assert batch.packets[0].dns is None
        assert batch.dns_map.answers_seen == 0
        grown = AuditPipeline.incremental(TV)
        assert grown.extend_pcap_bytes(raw) == 2
        _assert_queries_agree(batch, grown)
        assert grown.packet_count_for(f"unresolved:{REMOTES[0]}") == 1

    def test_short_a_record_through_fleet_and_service(self, tmp_path):
        from repro.experiments.grid import CellRecord, ResultCache
        from repro.fleet import PopulationSpec
        from repro.fleet.runner import _audit_household
        from repro.service.auditor import HouseholdIngest
        from repro.service.segments import CaptureSegment
        household = next(iter(PopulationSpec(1, seed=21)))
        raw = _short_a_capture()
        cache = ResultCache(str(tmp_path), version="hostile-dns")
        cache.store(CellRecord(
            household.label, household.seed,
            household.diary_obj.duration_ns, packet_count=2,
            pcap_len=len(raw), tv_mac=str(MAC_TV), tv_ip=str(TV),
            device_id="test", elapsed_s=0.0, pcap_bytes=raw))
        # A capture the fleet recalls from the cache and audits...
        summary, executed = _audit_household(household, cache)
        assert not executed and "findings" not in summary
        # ...and one the service ingests as a segment: no quarantine.
        ingest = HouseholdIngest(household, str(TV))
        ingest.ingest(CaptureSegment(household.index, 0, 1, raw))
        assert ingest.findings == []
        assert ingest.summarize() == summary

    def test_compressed_cname_resolves_like_spelled_out(self):
        spelled, compressed = (
            AuditPipeline.from_pcap_bytes(_cname_capture(flag), TV)
            for flag in (False, True))
        assert spelled.contacted_domains == ["www.example.com"]
        assert compressed.dns_map.addresses_for("www.example.com") == \
            [REMOTES[0]]
        domains = ["www.example.com", NAMES[0], "ghost.example"]
        assert _answers(compressed, domains) == _answers(spelled, domains)


# -- fuzzing the decode ---------------------------------------------------------

positions = st.integers(0, 1 << 16)

#: 1-5 byte-level mutations: bit flip, overwrite, truncation, insertion.
mutations = st.lists(st.one_of(
    st.tuples(st.just("flip"), positions, st.integers(0, 7)),
    st.tuples(st.just("set"), positions, st.integers(0, 255)),
    st.tuples(st.just("cut"), positions, st.none()),
    st.tuples(st.just("insert"), positions,
              st.binary(min_size=1, max_size=8))), min_size=1, max_size=5)


def _mutate(raw, steps):
    data = bytearray(raw)
    for kind, position, argument in steps:
        if kind == "insert":
            at = position % (len(data) + 1)
            data[at:at] = argument
        elif data and kind == "flip":
            data[position % len(data)] ^= 1 << argument
        elif data and kind == "set":
            data[position % len(data)] = argument
        elif data:
            del data[position % len(data):]
    return bytes(data)


pointers = st.integers(0, 0x3FFF).map(_pointer)

#: An answer with an arbitrary type, owner, data and declared length.
hostile_records = st.tuples(
    st.one_of(st.sampled_from(NAMES).map(encode_name),
              st.just(_pointer(QNAME_AT)), pointers),
    st.sampled_from([TYPE_A, TYPE_CNAME, TYPE_PTR, 28]),
    st.one_of(st.none(), st.integers(0, 0xFFFF)),
    st.one_of(st.sampled_from(REMOTES).map(Ipv4Address.to_bytes),
              st.binary(max_size=12), pointers,
              st.sampled_from(NAMES).map(encode_name),
              st.tuples(st.binary(min_size=1, max_size=6), pointers).map(
                  lambda p: bytes([len(p[0])]) + p[0] + p[1]))).map(
    lambda r: (r[0], r[1], len(r[3]) if r[2] is None else r[2], r[3]))


@st.composite
def hostile_captures(draw):
    """A healthy capture with 1-3 hostile DNS responses spliced in."""
    packets = [p.data for p in _frames(draw(events))]
    for __ in range(draw(st.integers(1, 3))):
        message = _message(draw(st.sampled_from(NAMES)),
                           draw(st.lists(hostile_records, min_size=1,
                                         max_size=4)))
        packets.insert(draw(st.integers(0, len(packets))),
                       _resolver_frame(0, message).data)
    return dump_bytes([CapturedPacket((i + 1) * 1_000_000, frame)
                       for i, frame in enumerate(packets)])


fuzzed_captures = st.one_of(
    st.tuples(events.map(lambda items: dump_bytes(_frames(items))),
              mutations).map(lambda pair: _mutate(*pair)),
    hostile_captures(),
    st.tuples(hostile_captures(), mutations).map(
        lambda pair: _mutate(*pair)))


def check_decode_properties(raw):
    # 1. Only the documented exceptions escape the decode.
    for decode in (ColumnarCapture.from_pcap_bytes,
                   AuditPipeline.from_pcap_bytes,
                   AuditPipeline.incremental(TV).extend_pcap_bytes):
        try:
            decode(raw)
        except (PcapError, ValueError):
            pass
    # 2. A segment extension is all or nothing.
    pipeline = AuditPipeline.incremental(TV)
    pipeline.extend_pcap_bytes(dump_bytes(_frames([
        ("dns", 0, 0), ("tcp", 0, True, 5000, b"seed")])))
    domains = sorted(pipeline._domain_index()) + ["ghost.example"]
    before = _answers(pipeline, domains), pipeline.dns_map.answers_seen
    try:
        pipeline.extend_pcap_bytes(raw)
    except (PcapError, ValueError):
        assert (_answers(pipeline, domains),
                pipeline.dns_map.answers_seen) == before
    # 3. Salvage keeps what it accepts; an empty result is an unusable
    #    global header and nothing else.
    clean, drops = salvage_pcap_bytes(raw)
    if not clean:
        assert len(drops) == 1 and drops[0][0] == -1
        return
    assert salvage_pcap_bytes(clean) == (clean, [])
    # 4. What salvage keeps decodes exactly like the oracle, here over
    #    LazyPacket rows (the build's reference): decode_all is stricter
    #    past the IPv4 header (TCP data offset, UDP length).
    _assert_queries_agree(
        OraclePipeline.from_pcap_bytes(clean, TV, lazy_decode_all),
        AuditPipeline.from_pcap_bytes(clean, TV))


class TestDecodeFuzz:
    @given(fuzzed_captures)
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_captures_decode_safely(self, raw):
        check_decode_properties(raw)

    @pytest.mark.slow
    @given(fuzzed_captures)
    @settings(max_examples=1500, deadline=None)
    def test_fuzzed_captures_decode_safely_long_run(self, raw):
        check_decode_properties(raw)


@pytest.mark.slow
class TestRealCaptureTiers:
    """The oracle agrees on a genuine simulated experiment capture."""

    def test_experiment_capture_identical_across_tiers(
            self, lg_uk_linear_record):
        raw = lg_uk_linear_record.pcap_bytes
        tv = Ipv4Address.parse(lg_uk_linear_record.tv_ip)
        oracle = OraclePipeline.from_pcap_bytes(raw, tv)
        _assert_queries_agree(oracle, AuditPipeline.from_pcap_bytes(raw, tv))
        assert infer_tv_ip(oracle.packets) == tv
        assert AuditPipeline.from_pcap_bytes(raw).tv_ip == tv
