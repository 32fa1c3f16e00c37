"""The first-class findings data model.

A :class:`Finding` is one verified (or violated) claim about the
measured fleet/testbed: a stable ``code``, a human ``title``, a
``severity`` on a fixed ordered scale, the emitter's ``confidence`` in
the measurement, the ``passed`` verdict, and machine-checkable
:class:`Evidence` pointers (capture id, household index,
vendor/country/phase, flow key, segment and record range) beside the
human-readable evidence text.

Both value types are frozen dataclasses: hashable, picklable, and safe
as Counter keys — which is what lets the
:class:`~repro.findings.ledger.FindingsLedger` fold and merge them with
the same associative/commutative algebra as
:class:`~repro.fleet.aggregate.FleetAggregate`.

Every emitter in the repository routes through this module:

* the scorecard checks (:mod:`repro.experiments.findings`, S1-S12 and
  X1-X6);
* the vendor conformance contracts
  (:mod:`repro.findings.conformance`);
* fleet/service degradation quarantines (:meth:`Finding.degradation`
  — also the single formatter behind the legacy evidence string);
* service opt-out violations (:meth:`Finding.optout_violation`,
  emitted by ``FleetAggregate.fold`` so batch and streaming paths
  cannot diverge).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Mapping, Optional, Tuple

#: The ordered severity scale (least to most severe).  ``severity_rank``
#: gives the total order; exports carry the name, never the rank.
SEVERITIES: Tuple[str, ...] = ("info", "low", "medium", "high",
                               "critical")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Codes for the event-shaped findings the fleet/service layers emit.
DEGRADATION_CODE = "DEG"
OPTOUT_VIOLATION_CODE = "OPTOUT"


def severity_rank(severity: str) -> int:
    """Position of ``severity`` on the scale (raises on unknown)."""
    return _SEVERITY_RANK[severity]


#: The JSON type of every :class:`Evidence` field, for readers of
#: exported evidence objects.
EVIDENCE_TYPES: Dict[str, type] = {
    "text": str, "capture": str, "household": int, "vendor": str,
    "country": str, "phase": str, "flow": str, "segment": int,
    "record_start": int, "record_end": int,
}


@dataclass(frozen=True)
class Evidence:
    """One machine-checkable pointer backing a finding.

    ``text`` is the human-readable measurement summary (the scorecard's
    historical free-text evidence); every other field is an optional
    structured pointer into the measured data.  All fields are
    primitives so evidence serializes canonically and hashes as a
    Counter key.
    """

    text: str = ""
    #: Capture identity: a grid cell label or a household label.
    capture: Optional[str] = None
    #: Population index of the household the evidence points into.
    household: Optional[int] = None
    vendor: Optional[str] = None
    country: Optional[str] = None
    phase: Optional[str] = None
    #: Flow key / domain the evidence points at.
    flow: Optional[str] = None
    #: Capture segment sequence number (streaming tier).
    segment: Optional[int] = None
    #: Inclusive packet/record range inside the capture (or segment).
    record_start: Optional[int] = None
    record_end: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form: only the populated fields, ``text`` always."""
        payload: Dict[str, object] = {"text": self.text}
        for spec in fields(self):
            if spec.name == "text":
                continue
            value = getattr(self, spec.name)
            if value is not None:
                payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Evidence":
        names = {spec.name for spec in fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ValueError(f"unknown evidence fields: "
                             f"{sorted(unknown)}")
        return cls(**dict(payload))

    def locus(self) -> Tuple:
        """The pointer fields only — the identity used by ``findings
        diff`` so re-measured numbers in ``text`` do not read as new
        findings."""
        return tuple(getattr(self, spec.name) for spec in fields(self)
                     if spec.name != "text")


def _degradation_text(label: str, household_index: int,
                      segment_seq: Optional[int], record_index: int,
                      reason: str) -> str:
    """The canonical one-line evidence a quarantined record reports.

    This is the *only* formatter for degradation evidence — the fleet
    report's ``## Degradations`` table, the metrics counters and the
    findings export all carry this exact string, so the text and the
    structured model cannot drift.
    """
    where = f"segment {segment_seq} " if segment_seq is not None else ""
    record = "global header" if record_index < 0 \
        else f"record {record_index}"
    return (f"household {household_index} [{label}] {where}{record}: "
            f"{reason}")


@dataclass(frozen=True)
class Finding:
    """One finding: verdict + severity + confidence + evidence."""

    code: str
    title: str
    severity: str = "medium"
    confidence: float = 1.0
    passed: bool = False
    evidence: Tuple[Evidence, ...] = ()

    def __post_init__(self) -> None:
        if not self.code:
            raise ValueError("finding needs a non-empty code")
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(
                f"unknown severity {self.severity!r} "
                f"(choose from {', '.join(SEVERITIES)})")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"confidence must be within [0, 1], "
                f"got {self.confidence!r}")
        if not isinstance(self.evidence, tuple):
            object.__setattr__(self, "evidence", tuple(self.evidence))

    # -- compatibility aliases (the scorecard's historical names) ---------------

    @property
    def finding_id(self) -> str:
        return self.code

    @property
    def description(self) -> str:
        return self.title

    # -- rendering --------------------------------------------------------------

    def status_line(self) -> str:
        """``[PASS]``/``[FAIL]`` + code + title — the single formatter
        behind both ``repr()`` and the rendered scorecard."""
        state = "PASS" if self.passed else "FAIL"
        return f"[{state}] {self.code}: {self.title}"

    def evidence_text(self) -> str:
        """The human-readable evidence line (texts joined with '; ')."""
        return "; ".join(entry.text for entry in self.evidence
                         if entry.text)

    def __repr__(self) -> str:
        return self.status_line()

    # -- ordering / serialization -----------------------------------------------

    def sort_key(self) -> Tuple[str, int, str]:
        """Total, deterministic export order: code, then severity rank
        (most severe first), then the canonical serialized form."""
        return (self.code, -severity_rank(self.severity),
                json.dumps(self.to_dict(), sort_keys=True))

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "title": self.title,
            "severity": self.severity,
            "confidence": self.confidence,
            "passed": self.passed,
            "evidence": [entry.to_dict() for entry in self.evidence],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Finding":
        return cls(
            code=payload["code"], title=payload["title"],
            severity=payload["severity"],
            confidence=payload["confidence"],
            passed=bool(payload["passed"]),
            evidence=tuple(Evidence.from_dict(entry)
                           for entry in payload.get("evidence", ())))

    # -- event-shaped constructors ----------------------------------------------

    @classmethod
    def degradation(cls, label: str, household_index: int,
                    segment_seq: Optional[int], record_index: int,
                    reason: str) -> "Finding":
        """A quarantined capture record (fleet/service salvage path)."""
        start = None if record_index < 0 else record_index
        return cls(
            code=DEGRADATION_CODE,
            title="capture record quarantined instead of audited",
            severity="medium", confidence=1.0, passed=False,
            evidence=(Evidence(
                text=_degradation_text(label, household_index,
                                       segment_seq, record_index,
                                       reason),
                capture=label, household=household_index,
                segment=segment_seq, record_start=start,
                record_end=start),))

    @classmethod
    def optout_violation(cls, label: Optional[str],
                         household_index: Optional[int],
                         vendor: str, country: str, phase: str,
                         acr_bytes: int, domains: Iterable[str]
                         ) -> "Finding":
        """An opted-out household that still shows ACR flows."""
        domains = sorted(domains)
        return cls(
            code=OPTOUT_VIOLATION_CODE,
            title="opted-out household still uploads ACR traffic",
            severity="critical", confidence=1.0, passed=False,
            evidence=(Evidence(
                text=(f"{acr_bytes} ACR bytes to "
                      f"{', '.join(domains) or 'no named domain'} "
                      f"while opted out"),
                capture=label, household=household_index,
                vendor=vendor, country=country, phase=phase,
                flow=domains[0] if domains else None),))
