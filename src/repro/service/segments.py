"""Capture segmentation: one household pcap, sliced for streaming.

A segment is a self-contained pcap (global header + a contiguous run of
the original records) so any consumer that reads pcap bytes can ingest
it directly.  The slicing is byte-preserving: records are located by
the decode's own record walk (:func:`~repro.net.pcap.walk_records`),
which also decides that a capture is broken, so the splitter refuses
exactly what the decode refuses.  Records are never re-encoded, and
each segment is copied once, so

    sum(len(segment) - 24 for segments) + 24 == len(original)

which is what keeps the streaming tier's ``pcap_len`` accounting — and
therefore the fleet report — byte-identical to the batch path.
"""

from __future__ import annotations

from typing import List

from ..net.pcap import GLOBAL_HEADER, PcapError, walk_records

#: Size of the libpcap global header every segment re-carries.
PCAP_HEADER_LEN = GLOBAL_HEADER.size


class CaptureSegment:
    """One slice of one household's capture, addressed for reassembly."""

    __slots__ = ("household_index", "seq", "total", "payload")

    def __init__(self, household_index: int, seq: int, total: int,
                 payload: bytes) -> None:
        if not 0 <= seq < total:
            raise ValueError(f"segment seq {seq} outside 0..{total - 1}")
        self.household_index = household_index
        self.seq = seq
        self.total = total
        self.payload = payload

    def __repr__(self) -> str:
        return (f"CaptureSegment(hh={self.household_index}, "
                f"{self.seq + 1}/{self.total}, "
                f"{len(self.payload)} bytes)")


def split_pcap_bytes(raw: bytes, parts: int) -> List[bytes]:
    """Slice a pcap into up to ``parts`` contiguous, self-framed chunks.

    Record payloads are copied verbatim; each chunk is prefixed with the
    original global header.  Captures with fewer packets than ``parts``
    yield one chunk per packet; an empty capture yields a single
    header-only chunk.  The split is a pure function of
    ``(raw, parts)`` — both sides of a kill/resume cycle cut the same
    capture identically.  A capture the decode refuses is refused with
    the decode's :class:`PcapError` text, followed by the index and
    byte offset of the first record the walk rejected.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    offsets, __, cursor, error = walk_records(raw)
    records = len(offsets)
    if error is not None:
        raise PcapError(f"{error} (record {records} at byte {cursor})")
    size = len(raw)
    view = memoryview(raw)
    header = bytes(view[:PCAP_HEADER_LEN])
    if records == 0:
        return [header]
    parts = min(parts, records)
    base, extra = divmod(records, parts)
    chunks: List[bytes] = []
    lo = PCAP_HEADER_LEN
    stop = 0
    for index in range(parts):
        stop += base + (1 if index < extra else 0)
        hi = int(offsets[stop]) if stop < records else size
        chunks.append(b"".join((header, view[lo:hi])))
        lo = hi
    return chunks


def segment_record(household_index: int, pcap_bytes: bytes,
                   parts: int) -> List[CaptureSegment]:
    """Cut one household capture into addressed segments."""
    chunks = split_pcap_bytes(pcap_bytes, parts)
    return [CaptureSegment(household_index, seq, len(chunks), chunk)
            for seq, chunk in enumerate(chunks)]
