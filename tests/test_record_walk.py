"""The shared record walk, ``net/pcap.py`` ``walk_records``, against the
strict walk, ``iter_records``.

The columnar build and the segment splitter both take their record
offsets from ``walk_records``.  Its vectorized rounds run only on runs
of repeating record sizes, and only after a probe of at least 64
records, so the captures here hold 200 or more records that mix such
runs (periods 1-8) with aperiodic stretches.  Each is written in native
and in swapped byte order and cut at any byte.
"""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packet_oracle import dump_bytes
from repro.net import ColumnarCapture, PcapError
from repro.net import pcap
from repro.net.pcap import GLOBAL_HEADER, RECORD_HEADER, iter_records, \
    walk_records
from repro.obs.metrics import disable, enable
from repro.service import split_pcap_bytes

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Frame sizes: zero-filled non-IP frames of at least an Ethernet
#: header, which the build decodes without a frame-level error.
frame_sizes = st.integers(min_value=14, max_value=160)

#: ``count`` records repeating a pattern of 1-8 sizes.
periodic = st.tuples(st.lists(frame_sizes, min_size=1, max_size=8),
                     st.integers(min_value=8, max_value=400)).map(
    lambda run: [run[0][i % len(run[0])] for i in range(run[1])])

#: Record sizes: periodic runs and aperiodic stretches, at least 200.
record_sizes = st.lists(
    st.one_of(periodic, st.lists(frame_sizes, min_size=1, max_size=120)),
    min_size=1, max_size=8).map(
    lambda blocks: [size for block in blocks for size in block]).map(
    lambda sizes: sizes * -(-200 // len(sizes)))

#: A captured length no snaplen allows, and past the end of any buffer.
IMPLAUSIBLE = 0xFFFFFFF0


def _capture(sizes, swapped, implausible=None):
    """A pcap of zero-filled frames of ``sizes``; the record at index
    ``implausible`` claims :data:`IMPLAUSIBLE` captured bytes."""
    order = ">" if swapped else "<"
    parts = [struct.pack(order + "IHHiIII", pcap.MAGIC_USEC, 2, 4, 0, 0,
                         pcap.SNAPLEN, pcap.LINKTYPE_ETHERNET)]
    for index, size in enumerate(sizes):
        incl = IMPLAUSIBLE if index == implausible else size
        parts.append(struct.pack(order + "IIII", index // 1000,
                                 index % 1000 * 1000, incl, size))
        parts.append(bytes(size))
    return b"".join(parts)


def _strict(raw):
    """``(record starts, first PcapError text or None, next offset)``
    of the strict walk: the next offset is where the record after the
    last yielded one starts (the capture's length when none is cut)."""
    starts, error, after = [], None, GLOBAL_HEADER.size
    try:
        for __, frame, incl, __ in iter_records(raw):
            starts.append(frame - RECORD_HEADER.size)
            after = frame + incl
    except PcapError as exc:
        error = str(exc)
    return starts, error, after


def _check(raw, swapped, parts):
    """The shared walk, the build and the splitter against the strict
    walk over one (possibly cut) capture."""
    starts, error, after = _strict(raw)

    walk = walk_records(raw, swapped)
    offsets = walk.offsets.tolist()
    assert offsets[:len(starts)] == starts
    if error is None or error.startswith("truncated pcap record header"):
        assert offsets == starts
        assert walk.cursor == after
    else:
        # The strict walk stopped at the record that starts at
        # ``after``: its data is cut or its length implausible.
        assert offsets[len(starts)] == after
        assert walk.cursor > len(raw)
    assert 0 <= walk.speculated <= len(offsets)

    if error is None:
        capture = ColumnarCapture.from_pcap_bytes(raw)
        assert capture.off.tolist() == [start + RECORD_HEADER.size
                                        for start in starts]
        assert capture.length.tolist() == [
            incl for __, __, incl, __ in iter_records(raw)]
    else:
        with pytest.raises(PcapError) as caught:
            ColumnarCapture.from_pcap_bytes(raw)
        assert str(caught.value) == error

    if swapped:
        with pytest.raises(PcapError, match="native-order"):
            split_pcap_bytes(raw, parts)
    elif error is None:
        chunks = split_pcap_bytes(raw, parts)
        header = raw[:GLOBAL_HEADER.size]
        assert all(chunk[:GLOBAL_HEADER.size] == header
                   for chunk in chunks)
        assert header + b"".join(chunk[GLOBAL_HEADER.size:]
                                 for chunk in chunks) == raw
    else:
        with pytest.raises(PcapError) as caught:
            split_pcap_bytes(raw, parts)
        kind = "header" if "header" in error else "data"
        assert str(caught.value).startswith(
            f"truncated pcap record {kind}: record {len(starts)} at "
            f"byte {after} ")


class TestSharedWalk:
    @given(sizes=record_sizes, swapped=st.booleans(),
           cut=st.none() | st.integers(min_value=0),
           implausible=st.none() | st.integers(min_value=0),
           parts=st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_walk_build_and_split_follow_the_strict_walk(
            self, sizes, swapped, cut, implausible, parts):
        raw = _capture(sizes, swapped, None if implausible is None
                       else implausible % len(sizes))
        if cut is not None:
            raw = raw[:GLOBAL_HEADER.size
                      + cut % (len(raw) - GLOBAL_HEADER.size + 1)]
        _check(raw, swapped, parts)

    @pytest.mark.parametrize("tail", ["periodic", "aperiodic"])
    @pytest.mark.parametrize("swapped", [False, True])
    def test_every_cut_of_the_last_records(self, swapped, tail):
        # Cut at each byte of the last two records: whole headers with
        # no data, cut headers, cut data and record boundaries.  A
        # periodic tail ends in a round, an aperiodic one in a probe.
        sizes = [40, 90] * 150
        if tail == "aperiodic":
            sizes += [14 + (i * 37) % 140 for i in range(100)]
        raw = _capture(sizes, swapped)
        last_two = 2 * RECORD_HEADER.size + sum(sizes[-2:])
        for cut in range(len(raw) - last_two, len(raw) + 1):
            _check(raw[:cut], swapped, 6)

    def test_rounds_accept_periodic_runs_between_aperiodic_stretches(self):
        aperiodic = [14 + (i * 37) % 140 for i in range(150)]
        sizes = (aperiodic + [60, 1500, 60] * 400 + aperiodic
                 + list(range(20, 28)) * 150 + aperiodic)
        raw = _capture(sizes, swapped=False)
        walk = walk_records(raw, False)
        assert walk.offsets.tolist() == _strict(raw)[0]
        assert walk.cursor == len(raw)
        # More than either 1,200-record run holds: rounds ran in both.
        assert walk.speculated > 1200


class TestSpeculationCounts:
    def test_periodic_capture_is_mostly_speculated(self, monkeypatch):
        # The benchmark's data/ACK capture: every record after the first
        # probe repeats a two-size pattern.
        monkeypatch.syspath_prepend(REPO_ROOT)
        from benchmarks.bench_net_hotpath import synth_capture
        raw = dump_bytes(synth_capture(1500))
        registry = enable()
        try:
            ColumnarCapture.from_pcap_bytes(raw)
            counters = registry.snapshot()["counters"]
        finally:
            disable()
        assert counters["decode.columnar.packets"] == 3000
        assert counters["decode.columnar.walk_speculated"] >= 0.9 * 3000

    def test_aperiodic_capture_backs_off(self, monkeypatch):
        # No period: each probe doubles, up to the cap, so a capture of
        # n records runs about log2(cap / 64) + n / cap period tests.
        tests = []
        period = pcap._period
        monkeypatch.setattr(pcap, "_period",
                            lambda strides: tests.append(1) or
                            period(strides))
        sizes = [14 + (i * i * 7919) % 1400 for i in range(10_000)]
        walk = walk_records(_capture(sizes, swapped=False), False)
        assert len(walk.offsets) == 10_000 and walk.speculated == 0
        assert len(tests) <= 5 + 10_000 // pcap._SPEC_PROBE_CAP
