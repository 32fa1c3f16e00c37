"""The shared record walk, ``net/pcap.py`` ``walk_records``, and every
consumer of it, against the strict reader ``iter_records`` of
``tests/packet_oracle.py``.

The columnar build, the segment splitter and salvage take their record
offsets, headers and first break from ``walk_records``.  The captures
here are written in native and in swapped byte order, may hold one
record whose length no snaplen allows, and are cut at any byte.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packet_oracle import iter_records
from repro.faults import salvage_pcap_bytes
from repro.net import ColumnarCapture, PcapError
from repro.net import pcap
from repro.net.pcap import GLOBAL_HEADER, RECORD_HEADER, walk_records
from repro.service import split_pcap_bytes

#: Frame sizes: zero-filled non-IP frames of at least an Ethernet
#: header, which the build decodes without a frame-level error.
frame_sizes = st.integers(min_value=14, max_value=160)

#: A captured length no snaplen allows, and past the end of any buffer.
PAST_END = 0xFFFFFFF0

#: The smallest captured length no snaplen allows.  A record that
#: really carries this many bytes jumps to the next record, so a walk
#: that did not stop at it would go on and end on the buffer's last
#: byte.
SMALLEST_IMPLAUSIBLE = pcap.SNAPLEN + 65536 + 1


def _capture(sizes, swapped, implausible=None):
    """A pcap of zero-filled frames of ``sizes``; the record at index
    ``implausible`` claims :data:`PAST_END` captured bytes."""
    order = ">" if swapped else "<"
    parts = [struct.pack(order + "IHHiIII", pcap.MAGIC_USEC, 2, 4, 0, 0,
                         pcap.SNAPLEN, pcap.LINKTYPE_ETHERNET)]
    for index, size in enumerate(sizes):
        incl = PAST_END if index == implausible else size
        parts.append(struct.pack(order + "IIII", index // 1000,
                                 index % 1000 * 1000, incl, size))
        parts.append(bytes(size))
    return b"".join(parts)


def _strict(raw):
    """``(records, first PcapError text or None, next offset)`` of the
    strict reader: a record is ``(start, timestamp, captured length)``,
    and the next offset is where the record after the last one read
    starts (the capture's length when none is cut)."""
    records, error, after = [], None, GLOBAL_HEADER.size
    try:
        for timestamp, frame, incl, __ in iter_records(raw):
            records.append((frame - RECORD_HEADER.size, timestamp, incl))
            after = frame + incl
    except PcapError as exc:
        error = str(exc)
    return records, error, after


def _check(raw, parts):
    """The shared walk, the build, the splitter and salvage against the
    strict reader over one (possibly cut) capture."""
    records, error, after = _strict(raw)
    starts = [start for start, __, __ in records]

    walk = walk_records(raw)
    assert walk.offsets.tolist() == starts
    assert [(sec * 10 ** 9 + usec * 1000, incl)
            for sec, usec, incl in walk.headers.tolist()] == [
        (timestamp, incl) for __, timestamp, incl in records]
    assert walk.cursor == after
    assert (None if walk.error is None else str(walk.error)) == error

    if error is None:
        capture = ColumnarCapture.from_pcap_bytes(raw)
        assert capture.off.tolist() == [start + RECORD_HEADER.size
                                        for start in starts]
        assert capture.ts.tolist() == [ts for __, ts, __ in records]
        assert capture.length.tolist() == [incl for __, __, incl in records]
    else:
        with pytest.raises(PcapError) as caught:
            ColumnarCapture.from_pcap_bytes(raw)
        assert str(caught.value) == error

    if error is None:
        chunks = split_pcap_bytes(raw, parts)
        header = raw[:GLOBAL_HEADER.size]
        assert all(chunk[:GLOBAL_HEADER.size] == header
                   for chunk in chunks)
        assert header + b"".join(chunk[GLOBAL_HEADER.size:]
                                 for chunk in chunks) == raw
    else:
        with pytest.raises(PcapError) as caught:
            split_pcap_bytes(raw, parts)
        assert str(caught.value) == \
            f"{error} (record {len(starts)} at byte {after})"

    # Every frame here decodes, so salvage drops only the break and
    # keeps exactly the records the strict reader read.
    clean, drops = salvage_pcap_bytes(raw)
    assert drops == ([] if error is None else [(len(starts), error)])
    assert clean == raw[:after]


class TestSharedWalk:
    @given(sizes=st.lists(frame_sizes, max_size=120), swapped=st.booleans(),
           cut=st.none() | st.integers(min_value=0),
           implausible=st.none() | st.tuples(
               st.integers(min_value=0), st.sampled_from(["past-end",
                                                          "inside"])),
           parts=st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_walk_build_split_and_salvage_follow_the_strict_reader(
            self, sizes, swapped, cut, implausible, parts):
        index = None
        if implausible is not None and sizes:
            index = implausible[0] % len(sizes)
            if implausible[1] == "inside":
                # Its jump lands on the next record, inside the buffer.
                sizes = sizes[:index] + [SMALLEST_IMPLAUSIBLE] \
                    + sizes[index + 1:]
                index = None
        raw = _capture(sizes, swapped, index)
        if cut is not None:
            raw = raw[:GLOBAL_HEADER.size
                      + cut % (len(raw) - GLOBAL_HEADER.size + 1)]
        _check(raw, parts)

    @pytest.mark.parametrize("tail", ["whole", "implausible"])
    @pytest.mark.parametrize("swapped", [False, True])
    def test_every_cut_of_the_last_records(self, swapped, tail):
        # Cut at each byte of the last two records: whole headers with
        # no data, cut headers, cut data and record boundaries.  An
        # implausible last record is refused for its length however
        # much of its data is cut.
        sizes = [14 + (i * 37) % 140 for i in range(40)]
        raw = _capture(sizes, swapped, len(sizes) - 1
                       if tail == "implausible" else None)
        last_two = 2 * RECORD_HEADER.size + sum(sizes[-2:])
        for cut in range(len(raw) - last_two, len(raw) + 1):
            _check(raw[:cut], 6)

    def test_a_jump_inside_the_buffer_is_refused_like_the_decode(self):
        # Record 100 claims 200,000 bytes: the jump lands inside the
        # 20,000-record buffer, and a walk through the garbage after it
        # would end on the buffer's last byte.
        raw = bytearray(_capture([64] * 20_000, swapped=False))
        start = GLOBAL_HEADER.size + 100 * (RECORD_HEADER.size + 64)
        raw[start + 8:start + 12] = (200_000).to_bytes(4, "little")
        raw = bytes(raw)
        _check(raw, 6)
        with pytest.raises(PcapError) as caught:
            split_pcap_bytes(raw, 6)
        assert str(caught.value) == ("implausible record length: 200000 "
                                     f"(record 100 at byte {start})")
