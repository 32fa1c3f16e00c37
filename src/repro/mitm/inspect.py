"""Payload inspection over decrypted MITM traffic.

Once the proxy yields plaintext, the auditor can finally answer what the
black-box study could not: *what exactly do ACR payloads contain?*  The
inspector classifies each message, parses fingerprint batches with the
real codec, and scans for identifiers (the advertising ID that §4.2
conjectures ACR keys on).
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from typing import Dict, List, Optional

from ..acr.fingerprint import FingerprintBatch
from .proxy import MitmProxy, PlaintextRecord

_UUID_RE = re.compile(
    rb"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}")

KIND_ACR_BATCH = "acr-fingerprint-batch"
KIND_JSON_LOG = "json-telemetry"
KIND_KEEPALIVE = "keepalive"
KIND_UNKNOWN = "opaque"


def shannon_entropy(data: bytes) -> float:
    """Bits per byte; near 8 looks encrypted/compressed, low looks
    structured."""
    if not data:
        return 0.0
    counts = Counter(data)
    total = len(data)
    return -sum((n / total) * math.log2(n / total)
                for n in counts.values())


class InspectedMessage:
    """The inspector's verdict on one plaintext record."""

    __slots__ = ("record", "kind", "batch", "json_body", "identifiers",
                 "entropy")

    def __init__(self, record: PlaintextRecord, kind: str,
                 batch: Optional[FingerprintBatch],
                 json_body: Optional[dict],
                 identifiers: List[str], entropy: float) -> None:
        self.record = record
        self.kind = kind
        self.batch = batch
        self.json_body = json_body
        self.identifiers = identifiers
        self.entropy = entropy

    def __repr__(self) -> str:
        return (f"InspectedMessage({self.record.domain}, {self.kind}, "
                f"{len(self.identifiers)} ids)")


def inspect_record(record: PlaintextRecord) -> InspectedMessage:
    """Classify and parse one plaintext message.

    Malformed plaintext never raises: a fingerprint batch that does not
    decode, or JSON that does not parse (bad UTF-8, bad syntax, nesting
    deeper than the parser's recursion limit), is classified opaque.
    """
    data = record.plaintext
    identifiers = [m.decode("ascii")
                   for m in _UUID_RE.findall(data.lower())]
    batch = None
    json_body = None
    if data[:4] == FingerprintBatch.MAGIC:
        try:
            batch = FingerprintBatch.decode(data)
            kind = KIND_ACR_BATCH
        except ValueError:
            kind = KIND_UNKNOWN
    elif data[:1] == b"{":
        try:
            json_body = json.loads(data.decode("utf-8"))
            kind = KIND_JSON_LOG
        except (ValueError, RecursionError):
            kind = KIND_UNKNOWN
    elif len(data) <= 64:
        kind = KIND_KEEPALIVE
    else:
        kind = KIND_UNKNOWN
    if json_body:
        for value in _iter_strings(json_body):
            if value.isascii() and _UUID_RE.match(
                    value.lower().encode("ascii")):
                identifiers.append(value.lower())
    return InspectedMessage(record, kind, batch, json_body,
                            sorted(set(identifiers)),
                            shannon_entropy(data))


def _iter_strings(obj) -> List[str]:
    """Every string value in a parsed JSON document, in document order.

    Iterative, so a deeply nested document cannot overflow the stack.
    """
    out: List[str] = []
    stack = [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, dict):
            stack.extend(reversed(node.values()))
        elif isinstance(node, list):
            stack.extend(reversed(node))
    return out


class DomainPayloadReport:
    """Aggregate payload findings for one domain."""

    __slots__ = ("domain", "messages", "kinds", "identifiers",
                 "total_captures", "capture_cadence_ms")

    def __init__(self, domain: str,
                 messages: List[InspectedMessage]) -> None:
        self.domain = domain
        self.messages = messages
        self.kinds = Counter(m.kind for m in messages)
        self.identifiers = sorted({identifier for m in messages
                                   for identifier in m.identifiers})
        batches = [m.batch for m in messages if m.batch is not None]
        self.total_captures = sum(len(b) for b in batches)
        cadences = []
        for batch in batches:
            offsets = sorted(c.offset_ns for c in batch.captures)
            cadences.extend((b - a) / 1e6
                            for a, b in zip(offsets, offsets[1:]))
        self.capture_cadence_ms = (sorted(cadences)[len(cadences) // 2]
                                   if cadences else None)

    @property
    def carries_fingerprints(self) -> bool:
        return self.kinds.get(KIND_ACR_BATCH, 0) > 0

    def __repr__(self) -> str:
        return (f"DomainPayloadReport({self.domain}, kinds="
                f"{dict(self.kinds)}, ids={len(self.identifiers)})")


class PayloadInspector:
    """Runs the inspection over everything a proxy decrypted."""

    def __init__(self, proxy: MitmProxy) -> None:
        self.proxy = proxy

    def inspect_all(self) -> Dict[str, DomainPayloadReport]:
        by_domain: Dict[str, List[InspectedMessage]] = {}
        for record in self.proxy.records:
            by_domain.setdefault(record.domain, []).append(
                inspect_record(record))
        return {domain: DomainPayloadReport(domain, messages)
                for domain, messages in by_domain.items()}

    def device_identifiers(self) -> List[str]:
        """Every identifier observed anywhere in decrypted payloads."""
        out = set()
        for report in self.inspect_all().values():
            out.update(report.identifiers)
        return sorted(out)

    def fingerprint_domains(self) -> List[str]:
        """Domains whose payloads actually carry fingerprint batches —
        ground truth for what the wire-level heuristic inferred."""
        return sorted(domain for domain, report
                      in self.inspect_all().items()
                      if report.carries_fingerprints)
