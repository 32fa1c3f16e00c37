"""The audit pipeline: from raw pcap bytes to per-domain traffic views.

This is the reproduction of the paper's Analysis Scripts.  Everything here
works from the capture alone — packets and the DNS answers inside them —
never from simulator ground truth, preserving the black-box vantage.

The pipeline is the single decode of a capture: pcap bytes are parsed
once into parallel columns (:class:`repro.net.columnar.ColumnarCapture`
— addresses, ports and lengths gathered from fixed header offsets, a
per-row decode only where a payload is actually read, i.e. DNS), and
every consumer — DNS map, per-domain index, table/figure/finding
drivers, the streaming tier's flow count — shares the resulting
indexed view instead of re-decoding.  Every index and query is a
column scan; per-packet objects exist only in query *results*.

Incremental extension
---------------------

A pipeline can also be grown one capture *segment* at a time
(:meth:`AuditPipeline.incremental` +
:meth:`AuditPipeline.extend_pcap_bytes`) — the streaming service tier
feeds it per-household segments as they arrive.  The invariant that
makes this byte-identical to a one-shot decode: a packet's domain label
is a pure function of its remote IP and the *final* DNS map.  Rows are
therefore indexed by remote IP at ingest (order preserved), and the
label -> rows view is materialized lazily at query time against the DNS
map as observed so far.  After the last segment the map equals the
batch map, so every query answers exactly as a whole-capture pipeline
would — regardless of how the capture was cut.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..net.addresses import Ipv4Address
from ..net.columnar import ColumnarCapture, ColumnarSlice
from ..obs.metrics import get_registry
from .dns_map import DnsMap


class AuditPipeline:
    """Decoded capture + DNS map + per-domain packet index.

    ``packets`` is a :class:`~repro.net.columnar.ColumnarCapture` (row
    views on demand), and the per-remote index holds u32 address keys
    and row-index arrays.
    """

    def __init__(self, capture: ColumnarCapture,
                 tv_ip: Ipv4Address) -> None:
        self.packets = capture
        self.tv_ip = tv_ip
        self.dns_map = DnsMap()
        #: remote u32 -> [row-index array, ...] (one chunk per segment,
        #: indices ascending within and across chunks).  Labels are
        #: *not* assigned here: a DNS answer later in the capture may
        #: name an IP contacted earlier, so the label view is derived
        #: lazily against the complete map (`_domain_index`).
        self._by_remote: Dict[int, List[np.ndarray]] = {}
        self._domain_view: Optional[Dict[str, np.ndarray]] = None
        self._absorb(0, len(capture))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def incremental(cls, tv_ip: Ipv4Address) -> "AuditPipeline":
        """An empty pipeline to be grown segment by segment."""
        return cls(ColumnarCapture(), tv_ip)

    @classmethod
    def from_pcap_bytes(cls, raw: bytes,
                        tv_ip: Optional[Ipv4Address] = None
                        ) -> "AuditPipeline":
        capture = ColumnarCapture.from_pcap_bytes(raw)
        if tv_ip is None:
            tv_ip = capture.infer_tv_ip()
        return cls(capture, tv_ip)

    @classmethod
    def from_result(cls, result) -> "AuditPipeline":
        """From any object with ``pcap_bytes`` and ``tv_ip`` (an
        ExperimentResult or a grid CellRecord); reads nothing else."""
        return cls.from_pcap_bytes(result.pcap_bytes,
                                   Ipv4Address.parse(result.tv_ip))

    # -- indexing ----------------------------------------------------------------

    def extend_pcap_bytes(self, raw: bytes) -> int:
        """Absorb one pcap-framed capture segment; returns its packet
        count (the streaming tier's per-segment ingest).

        All or nothing: a segment that fails to decode raises before
        the pipeline changes."""
        start, end = self.packets.extend_pcap_bytes(raw)
        self._absorb(start, end)
        return end - start

    def _absorb(self, start: int, end: int) -> None:
        """Index rows [start, end): DNS map and per-remote buckets."""
        capture = self.packets
        observe = self.dns_map.observe
        for i in np.nonzero(capture.dns[start:end])[0].tolist():
            observe(capture.view(start + i))
        tv = np.uint32(self.tv_ip.value)
        src = capture.src[start:end]
        dst = capture.dst[start:end]
        is_ip = capture.proto[start:end] >= 0
        from_tv = is_ip & (src == tv)
        to_tv = is_ip & (dst == tv)
        keep = from_tv | to_tv
        remote = np.where(from_tv, dst, src)[keep]
        if remote.size:
            rows = np.nonzero(keep)[0].astype(np.int64) + start
            order = np.argsort(remote, kind="stable")
            remote = remote[order]
            rows = rows[order]
            cuts = np.nonzero(np.diff(remote))[0] + 1
            bounds = np.concatenate(([0], cuts, [remote.size]))
            by_remote = self._by_remote
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                chunks = by_remote.get(int(remote[lo]))
                if chunks is None:
                    chunks = by_remote[int(remote[lo])] = []
                chunks.append(rows[lo:hi])
        registry = get_registry()
        if registry.enabled:
            registry.inc("pipeline.extends")
        self._domain_view = None

    def _domain_index(self) -> Dict[str, np.ndarray]:
        """label -> row indices (capture order), built against the DNS
        map as of now and cached until the next extension."""
        registry = get_registry()
        if self._domain_view is None:
            registry.inc("pipeline.domain_view.build")
            grouped: Dict[str, List[np.ndarray]] = {}
            for value, chunks in self._by_remote.items():
                remote = self.packets.address(value)
                label = (f"lan:{remote}" if remote.is_private
                         else self.dns_map.label(remote))
                grouped.setdefault(label, []).extend(chunks)
            view: Dict[str, np.ndarray] = {}
            for label, chunks in grouped.items():
                if len(chunks) == 1:
                    view[label] = chunks[0]
                else:
                    # Several IPs resolved to one name (or one IP spans
                    # several segments): row index is arrival order, so
                    # sorting the indices restores capture order.
                    merged = np.concatenate(chunks)
                    merged.sort()
                    view[label] = merged
            self._domain_view = view
        else:
            registry.inc("pipeline.domain_view.memo_hit")
        return self._domain_view

    # -- queries ------------------------------------------------------------------

    @property
    def contacted_domains(self) -> List[str]:
        """Every resolved Internet domain the TV exchanged traffic with."""
        return sorted(name for name in self._domain_index()
                      if not name.startswith(("lan:", "unresolved:")))

    def packets_for(self, domain: str) -> ColumnarSlice:
        return ColumnarSlice(self.packets,
                             self._domain_index().get(domain))

    def packets_for_all(self, domains: List[str]) -> ColumnarSlice:
        index = self._domain_index()
        parts = [index[domain] for domain in domains if domain in index]
        if not parts:
            return ColumnarSlice(self.packets)
        rows = np.concatenate(parts)
        order = np.argsort(self.packets.ts[rows], kind="stable")
        return ColumnarSlice(self.packets, rows[order])

    def bytes_for(self, domain: str) -> int:
        """Total bytes sent + received to/from one domain."""
        rows = self._domain_index().get(domain)
        if rows is None:
            return 0
        return int(self.packets.length[rows].sum())

    def kilobytes_for(self, domain: str) -> float:
        return self.bytes_for(domain) / 1000.0

    def bytes_sent_to(self, domain: str) -> int:
        rows = self._domain_index().get(domain)
        if rows is None:
            return 0
        capture = self.packets
        sent = capture.src[rows] == np.uint32(self.tv_ip.value)
        return int(capture.length[rows][sent].sum())

    def packet_count_for(self, domain: str) -> int:
        rows = self._domain_index().get(domain)
        return 0 if rows is None else len(rows)

    def upload_timestamps(self, domains: List[str]) -> List[int]:
        """Sorted capture times of TV-originated packets to ``domains``."""
        index = self._domain_index()
        parts = [index[domain] for domain in domains if domain in index]
        if not parts:
            return []
        rows = np.concatenate(parts)
        capture = self.packets
        sent = capture.src[rows] == np.uint32(self.tv_ip.value)
        return np.sort(capture.ts[rows][sent]).tolist()

    def byte_totals(self) -> Dict[str, int]:
        return {domain: self.bytes_for(domain)
                for domain in self.contacted_domains}

    # -- the heuristic's first stage ------------------------------------------------

    def acr_candidate_domains(self) -> List[str]:
        """Contacted domains whose *name* contains "acr" (§3.2)."""
        return [domain for domain in self.contacted_domains
                if "acr" in domain]

    def __repr__(self) -> str:
        return (f"AuditPipeline({len(self.packets)} packets, "
                f"{len(self.contacted_domains)} domains)")


#: The name the benchmark's tracer (``perfbench/workloads.py``) imports.
ColumnarAuditPipeline = AuditPipeline
