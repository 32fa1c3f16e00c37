"""Fault injection transforms and the quarantine (salvage) decoder.

Two halves:

* **Injection** — pure, deterministic transforms driven by a
  :class:`~repro.faults.plan.FaultPlan`: tamper a pcap segment
  (truncate mid-record / corrupt one frame header) or fail production
  attempts where a worker would crash or hang.  Injected
  pcap damage is constructed so the decode detects it (a structural
  ``PcapError`` or a frame ``ValueError``) before any pipeline state
  mutates — which is what lets the ingest layer quarantine and
  re-apply safely.

* **Salvage** — :func:`salvage_pcap_bytes`, the hardening that turns a
  corrupt capture from an abort into a counted degradation: take the
  records the shared record walk (:func:`~repro.net.pcap.walk_records`)
  accepts before the stream's first break, probe every frame with the
  same defensive decode the analysis uses, keep the good records
  byte-for-byte, and report each dropped record, and the break, with
  evidence (index + reason).

Both halves frame records with that one walk: the tamper sites pick
their record among the ones it accepts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..net.packet import LazyPacket
from ..net.pcap import GLOBAL_HEADER, RECORD_HEADER, PcapError, \
    walk_records
from ..obs.metrics import get_registry
from .plan import FaultPlan


def produce_with_retries(plan: FaultPlan, coords: Tuple, produce):
    """Run ``produce()`` after the bounded injected crash/hang retries.

    Each attempt consults the plan's ``worker.crash`` and
    ``worker.hang`` sites with stable coordinates; an attempt where one
    fires counts ``faults.injected.worker.*`` and is retried, and the
    bounded oracle guarantees some attempt under
    :data:`~repro.faults.plan.FAULT_ATTEMPT_CAP` runs clean.  The
    successful attempt counts ``faults.recovered.worker.*`` per failure.
    Returns ``(result, sites that fired)`` so callers can convert each
    failure into its kind of virtual-time backoff.
    """
    registry = get_registry()
    injected: List[str] = []
    attempt = 0
    while True:
        site = next((site for site in ("worker.crash", "worker.hang")
                     if plan.fires_bounded(site, attempt, *coords)), None)
        if site is None:
            break
        injected.append(site)
        registry.inc(f"faults.injected.{site}")
        registry.inc("retry.worker.attempts")
        attempt += 1
    result = produce()
    for site in injected:
        registry.inc(f"faults.recovered.{site}")
    return result, injected


# -- pcap tampering -----------------------------------------------------------


def tamper_pcap_bytes(plan: FaultPlan, payload: bytes,
                      *coords) -> Tuple[bytes, List[str]]:
    """Apply the plan's pcap faults to one capture (segment) payload.

    Returns ``(payload, injected sites)`` — unchanged payload and an
    empty list when nothing fires.  Damage is deterministic in
    ``(plan seed, coords)``:

    * ``pcap.truncate`` cuts the stream mid-record at a drawn record,
      losing that record and everything after it (a torn capture tail);
    * ``pcap.corrupt`` rewrites one drawn record's frame to claim IPv4
      with an impossible version nibble, so the decode rejects exactly
      that record.
    """
    injected: List[str] = []
    if not plan or len(payload) <= GLOBAL_HEADER.size:
        return payload, injected
    truncate = plan.fires("pcap.truncate", *coords)
    corrupt = plan.fires("pcap.corrupt", *coords)
    if not (truncate or corrupt):
        return payload, injected
    try:
        walk = walk_records(payload)
    except PcapError:
        return payload, injected
    starts = walk.offsets.tolist()
    if not starts:
        return payload, injected
    lengths = walk.headers[:, 2].tolist()
    registry = get_registry()
    if corrupt:
        pick = int(plan.draw("pcap.corrupt.record", *coords)
                   * len(starts))
        # The recipe needs 15 frame bytes; records are Ethernet frames
        # (>= 14 bytes on the wire), so scan forward for one that fits.
        for offset in range(len(starts)):
            record = (pick + offset) % len(starts)
            if lengths[record] >= 15:
                frame = starts[record] + RECORD_HEADER.size
                tampered = bytearray(payload)
                # Claim IPv4, then break the version nibble: the
                # columnar decode and its LazyPacket reference raise
                # ValueError for this exact frame and nothing else.
                tampered[frame + 12:frame + 14] = b"\x08\x00"
                tampered[frame + 14] = 0x0F
                payload = bytes(tampered)
                injected.append("pcap.corrupt")
                registry.inc("faults.injected.pcap.corrupt")
                break
    if truncate:
        record = int(plan.draw("pcap.truncate.record", *coords)
                     * len(starts))
        start, length = starts[record], lengths[record]
        cut = start + RECORD_HEADER.size + length // 2 if length \
            else start + RECORD_HEADER.size // 2
        payload = payload[:cut]
        injected.append("pcap.truncate")
        registry.inc("faults.injected.pcap.truncate")
    return payload, injected


# -- salvage (quarantine-and-continue) ----------------------------------------


def _probe(data: bytes) -> Optional[str]:
    """Reason string if this frame would fail analysis decode, else
    ``None``.  Mirrors the decode's failure surface: LazyPacket field
    parse plus the in-place DNS parse for UDP datagrams."""
    try:
        packet = LazyPacket(0, data)
        if packet.proto == 17:
            packet.dns
    except Exception as exc:  # noqa: BLE001 — any decode error quarantines
        return f"{type(exc).__name__}: {exc}"
    return None


def salvage_pcap_bytes(raw: bytes) -> Tuple[bytes, List[Tuple[int, str]]]:
    """Split a damaged pcap into its decodable part plus evidence.

    Returns ``(clean, drops)`` where ``clean`` is a valid pcap holding
    every record that decodes (byte-identical slices of the original —
    never re-encoded) and ``drops`` lists ``(record index, reason)``
    for each quarantined record (index ``-1`` marks an unusable global
    header).  The record walk's first break (a cut header, an
    implausible length, cut data) ends the salvage: framing past the
    break cannot be trusted, so the remaining records are reported as a
    single drop at the break's index, with the decode's error text.

    ``salvage(raw) == (raw, [])`` for any capture the decode accepts,
    so routing a *healthy* segment through here is a no-op.
    """
    try:
        walk = walk_records(raw)
    except PcapError as exc:
        return b"", [(-1, f"unusable global header: {exc}")]
    good: List[bytes] = [bytes(raw[:GLOBAL_HEADER.size])]
    drops: List[Tuple[int, str]] = []
    # The walk's acceptance rules are the decode's, so a salvaged
    # payload re-decodes without a second rejection pass.
    for index, (start, length) in enumerate(zip(
            walk.offsets.tolist(), walk.headers[:, 2].tolist())):
        end = start + RECORD_HEADER.size + length
        reason = _probe(bytes(raw[start + RECORD_HEADER.size:end]))
        if reason is None:
            good.append(bytes(raw[start:end]))
        else:
            drops.append((index, reason))
    if walk.error is not None:
        drops.append((len(walk.offsets), str(walk.error)))
    return b"".join(good), drops
