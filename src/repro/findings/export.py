"""Findings JSONL export (schema v1) and its reader.

Mirrors the metrics export exactly: line 1 is a ``meta`` record with
the schema version plus caller context, then one ``finding`` record per
distinct finding in the ledger's canonical order, each carrying its
occurrence ``count``.  The writer is atomic and the byte stream is a
pure function of the ledger + meta — which is what makes a
``--findings-out`` export byte-identical across ``--jobs`` counts.

``scripts/check_findings.py`` validates this schema in CI.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Tuple

from .ledger import FindingsLedger
from .model import EVIDENCE_TYPES, SEVERITIES

#: Bump on any incompatible change to the JSONL schema.
FINDINGS_SCHEMA_VERSION = 1


def ledger_to_jsonl(ledger: FindingsLedger,
                    meta: Optional[Mapping[str, object]] = None) -> str:
    """Render a ledger as stable-schema JSONL (one record per line)."""
    header: Dict[str, object] = {
        "record": "meta",
        "schema": FINDINGS_SCHEMA_VERSION,
    }
    for key, value in (meta or {}).items():
        header[key] = value
    lines = [json.dumps(header, sort_keys=True)]
    for record in ledger.to_jsonable():
        record["record"] = "finding"
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def write_findings_jsonl(path: str, ledger: FindingsLedger,
                         meta: Optional[Mapping[str, object]] = None
                         ) -> None:
    """Atomically write the JSONL export of one ledger."""
    from ..util import atomic_write_text
    atomic_write_text(path, ledger_to_jsonl(ledger, meta))


def read_findings_jsonl(path: str
                        ) -> Tuple[Dict[str, object],
                                   List[Dict[str, object]]]:
    """Parse an export back into ``(meta, finding records)``.

    Raises ``ValueError`` with a ``line <n>:`` prefix on structural
    problems and on mistyped fields that ``diff_records`` reads; the
    full schema check lives in ``scripts/check_findings.py`` (this
    reader only needs enough shape to diff two files).
    """
    with open(path, "r", encoding="utf-8") as fileobj:
        lines = fileobj.read().splitlines()
    if not lines:
        raise ValueError("line 1: empty file (expected a meta record)")
    records: List[Dict[str, object]] = []
    meta: Dict[str, object] = {}
    for line_no, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"line {line_no}: not JSON: {exc}")
        if not isinstance(record, dict):
            raise ValueError(f"line {line_no}: record must be a JSON "
                             f"object")
        kind = record.get("record")
        if line_no == 1:
            if kind != "meta":
                raise ValueError("line 1: first record must be 'meta'")
            if record.get("schema") != FINDINGS_SCHEMA_VERSION:
                raise ValueError(
                    f"line 1: unsupported schema "
                    f"{record.get('schema')!r} "
                    f"(expected {FINDINGS_SCHEMA_VERSION})")
            meta = record
            continue
        if kind != "finding":
            raise ValueError(f"line {line_no}: unknown record kind "
                             f"{kind!r}")
        _check_finding(record, line_no)
        records.append(record)
    return meta, records


def _check_finding(record: Dict[str, object], line_no: int) -> None:
    """Type-check the fields of one finding record that the diff reads."""

    def fail(message: str) -> None:
        raise ValueError(f"line {line_no}: {message}")

    code = record.get("code")
    if not isinstance(code, str) or not code:
        fail("finding needs a non-empty string 'code'")
    if not isinstance(record.get("title"), str):
        fail("finding 'title' must be a string")
    if record.get("severity") not in SEVERITIES:
        fail(f"unknown severity {record.get('severity')!r} "
             f"(choose from {', '.join(SEVERITIES)})")
    if not isinstance(record.get("passed"), bool):
        fail("finding 'passed' must be a bool")
    evidence = record.get("evidence")
    if not isinstance(evidence, list):
        fail("finding 'evidence' must be a list of objects")
    for entry in evidence:
        if not isinstance(entry, dict):
            fail("finding 'evidence' must be a list of objects")
        for key, value in entry.items():
            expected = EVIDENCE_TYPES.get(key)
            if expected is None:
                fail(f"unknown evidence field {key!r}")
            if not isinstance(value, expected) \
                    or isinstance(value, bool):
                fail(f"evidence field {key!r} must be "
                     f"{expected.__name__}, got {value!r}")

