"""Backpressure and bounded-memory tests for the streaming service.

The claims under test: credit exhaustion pauses a household's ingestion
without ever deadlocking (the cursor segment is always admissible, so a
refused producer can always make progress after a drain); live memory
is bounded by the household window (peak open households and peak
tracked flows), never by the fleet; and draining resumes
deterministically — the same arrival schedule replays to the identical
delivery order and telemetry.

Everything here runs on synthetic captures (no simulation), so the
suite stays in the fast inner loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packet_oracle import (CapturedPacket, TcpSegment, build_tcp_frame,
                           dump_bytes)
from repro.fleet import FleetAggregate, PopulationSpec
from repro.net import Ipv4Address, MacAddress
from repro.service import (AuditService, SegmentBus, ServiceConfig,
                           segment_record)
from repro.service import daemon as daemon_mod

MAC_TV = MacAddress.parse("02:00:00:00:00:01")
MAC_GW = MacAddress.parse("02:00:00:00:00:02")
TV_IP = "192.168.1.23"

#: Distinct remote endpoints per synthetic capture — the exact number
#: of flows one open household pins in memory.
FLOWS_PER_HOUSEHOLD = 5
PACKETS_PER_FLOW = 4


def synthetic_pcap(salt: int = 0) -> bytes:
    """A small capture with exactly FLOWS_PER_HOUSEHOLD TCP flows."""
    tv = Ipv4Address.parse(TV_IP)
    packets = []
    for flow in range(FLOWS_PER_HOUSEHOLD):
        remote = Ipv4Address.parse(f"203.0.113.{10 + flow}")
        for i in range(PACKETS_PER_FLOW):
            segment = TcpSegment(40000 + flow, 443, i, 1, 0x18,
                                 payload=bytes([salt & 0xFF]) * 32)
            packets.append(CapturedPacket(
                len(packets) * 1_000_000,
                build_tcp_frame(MAC_TV, MAC_GW, tv, remote, segment,
                                identification=len(packets) & 0xFFFF)))
    return dump_bytes(packets)


class _FakeRecord:
    def __init__(self, tv_ip, pcap_bytes):
        self.tv_ip = tv_ip
        self.pcap_bytes = pcap_bytes


def fake_household_record(household, cache):
    return _FakeRecord(TV_IP, synthetic_pcap(household.index)), True


@pytest.fixture
def fake_captures(monkeypatch):
    """Route the service's capture production to synthetic pcaps."""
    monkeypatch.setattr(daemon_mod, "household_record",
                        fake_household_record)


def service(households, **kwargs):
    config = ServiceConfig(
        window=kwargs.pop("window", 2),
        credits=kwargs.pop("credits", 2),
        segments=kwargs.pop("segments", 6),
        arrival_seed=kwargs.pop("arrival_seed", None))
    spec = PopulationSpec(households, seed=kwargs.pop("seed", 5))
    return AuditService(spec, cache=None, config=config, **kwargs)


class TestSegmentBusAdmission:
    def segments(self, count, household=0):
        return segment_record(household, synthetic_pcap(), count)

    def test_in_order_offers_deliver_immediately(self):
        delivered = []
        bus = SegmentBus(delivered.append, credits=1)
        bus.open(0, 4)
        for segment in self.segments(4):
            assert bus.offer(segment)
        assert [s.seq for s in delivered] == [0, 1, 2, 3]
        assert bus.open_lanes == 0  # lane closed on completion

    def test_out_of_order_buffers_within_credit(self):
        delivered = []
        bus = SegmentBus(delivered.append, credits=3)
        bus.open(0, 3)
        s = self.segments(3)
        assert bus.offer(s[2])          # buffered, not delivered
        assert delivered == []
        assert bus.offer(s[0])          # drains 0 only
        assert [x.seq for x in delivered] == [0]
        assert bus.offer(s[1])          # drains 1 then buffered 2
        assert [x.seq for x in delivered] == [0, 1, 2]

    def test_beyond_credit_window_is_refused(self):
        bus = SegmentBus(lambda s: None, credits=2)
        bus.open(0, 6)
        s = self.segments(6)
        assert not bus.offer(s[2])      # cursor 0, window [0, 2)
        assert not bus.offer(s[5])
        assert bus.refused == 2
        assert bus.buffered_segments == 0

    def test_cursor_segment_is_always_admissible(self):
        # The no-deadlock invariant: whatever was refused, the one
        # segment the cursor needs is inside the window.
        bus = SegmentBus(lambda s: None, credits=1)
        bus.open(0, 6)
        s = self.segments(6)
        for seq in (5, 4, 3, 2, 1):
            assert not bus.offer(s[seq])
        for seq in range(6):
            assert bus.admissible(0, seq) == (seq == bus.cursor(0))
            assert bus.offer(s[seq])

    def test_duplicates_are_acknowledged_not_redelivered(self):
        delivered = []
        bus = SegmentBus(delivered.append, credits=4)
        bus.open(0, 4)
        s = self.segments(4)
        assert bus.offer(s[0])
        assert bus.offer(s[1])
        assert bus.offer(s[1])          # behind the cursor: replay
        assert bus.offer(s[2]) and bus.offer(s[2])
        assert bus.duplicates == 2
        assert [x.seq for x in delivered] == [0, 1, 2]

    def test_buffer_is_bounded_by_credits_per_lane(self):
        bus = SegmentBus(lambda s: None, credits=3)
        bus.open(0, 10)
        s = self.segments(10)
        for seq in range(9, 0, -1):     # hold back seq 0: nothing drains
            bus.offer(s[seq])
        assert bus.buffered_segments <= 3 - 1  # cursor slot unfillable
        assert bus.peak_buffered <= 3

    def test_completion_and_drain_callbacks_fire(self):
        events = []
        bus = SegmentBus(lambda s: None, credits=2,
                         on_complete=lambda i: events.append(("done", i)),
                         on_drain=lambda i: events.append(("drain", i)))
        bus.open(7, 3)
        s = self.segments(3, household=7)
        bus.offer(s[1])                 # buffered; no progress
        bus.offer(s[0])                 # drains 0,1 -> drain callback
        assert events == [("drain", 7)]
        bus.offer(s[2])                 # completes -> complete, no drain
        assert events == [("drain", 7), ("done", 7)]

    def test_mismatched_total_rejected(self):
        bus = SegmentBus(lambda s: None)
        bus.open(0, 3)
        (wrong,) = self.segments(1)
        with pytest.raises(ValueError, match="lane opened with 3"):
            bus.offer(wrong)

    def test_double_open_rejected(self):
        bus = SegmentBus(lambda s: None)
        bus.open(0, 3)
        with pytest.raises(ValueError, match="already open"):
            bus.open(0, 3)

    @given(order=st.permutations(list(range(8))),
           credits=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_any_arrival_order_drains_without_deadlock(self, order,
                                                       credits):
        # A producer that parks refusals and re-offers after each
        # drain terminates for every arrival order and credit window,
        # and the sink always sees seq order.
        delivered = []
        parked = []
        drained = []
        bus = SegmentBus(delivered.append, credits=credits,
                         on_drain=lambda i: drained.append(i))
        bus.open(0, 8)
        segments = {s.seq: s for s in self.segments(8)}
        for seq in order:
            if not bus.offer(segments[seq]):
                parked.append(seq)
            while drained:                  # retry parked after drains
                drained.clear()
                for held in sorted(parked):
                    if bus.offer(segments[held]):
                        parked.remove(held)
        assert parked == []
        assert [s.seq for s in delivered] == list(range(8))
        assert bus.delivered == 8
        assert bus.open_lanes == 0


@pytest.mark.usefixtures("fake_captures")
class TestServiceBackpressure:
    def test_credit_exhaustion_pauses_then_drains(self):
        # One credit + many segments forces refusals on nearly every
        # out-of-order arrival, yet the run completes and every
        # segment is delivered exactly once.
        result = service(4, credits=1, segments=8, window=2).run()
        assert result.refusals > 0
        assert result.segments_delivered == 4 * 8
        assert result.state.households == 4

    def test_memory_window_stays_bounded(self):
        # The bounded-memory claim, measured: open households never
        # exceed the window, and peak tracked flows never exceed
        # window * flows-per-capture even though the fleet is larger.
        result = service(9, window=2, credits=2, segments=4).run()
        assert result.peak_open_households <= 2
        assert result.peak_tracked_flows <= 2 * FLOWS_PER_HOUSEHOLD
        assert result.peak_buffered_segments <= 2 * 2
        assert result.state.households == 9

    def test_wider_window_admits_more(self):
        narrow = service(6, window=1, segments=4).run()
        wide = service(6, window=6, segments=4).run()
        assert narrow.peak_open_households == 1
        assert wide.peak_open_households > 1
        assert narrow.aggregate == wide.aggregate

    def test_draining_resumes_deterministically(self):
        # Same population + config: the whole schedule (deliveries,
        # refusals, peaks) replays identically, not just the aggregate.
        first = service(5, credits=1, segments=7, window=3).run()
        second = service(5, credits=1, segments=7, window=3).run()
        assert first.aggregate == second.aggregate
        assert first.segments_delivered == second.segments_delivered
        assert first.refusals == second.refusals
        assert first.peak_tracked_flows == second.peak_tracked_flows
        assert first.peak_buffered_segments == \
            second.peak_buffered_segments

    def test_aggregate_is_schedule_invariant(self):
        # Different credit/segment/arrival schedules change telemetry,
        # never the audit.
        baseline = service(5, credits=4, segments=2, window=5,
                           arrival_seed=1).run()
        for credits, segments, arrival in ((1, 9, 2), (2, 5, 3),
                                           (3, 3, 4)):
            other = service(5, credits=credits, segments=segments,
                            window=2, arrival_seed=arrival).run()
            assert other.aggregate == baseline.aggregate

    def test_deadlock_free_under_minimal_credit(self):
        # credits=1 + out-of-order arrivals is the worst case: every
        # non-cursor offer is refused and must wait for a drain.
        result = service(3, credits=1, segments=10, window=3).run()
        assert result.segments_delivered == 3 * 10
        assert result.state.households == 3

    def test_zero_acr_households_fold_cleanly(self):
        # Synthetic captures carry no ACR traffic: the streamed
        # aggregate must stay equal to a fresh fold (no zero-count
        # Counter residue from the by-vendor accumulators).
        result = service(4, segments=3).run()
        agg = result.aggregate
        assert agg.households == 4
        assert agg.acr_households == 0
        assert agg.acr_bytes_by_vendor == {}
        restored = FleetAggregate.from_dict(agg.to_dict())
        assert restored == agg
