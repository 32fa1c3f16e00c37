"""Validate a ``--findings-out`` JSONL export against schema v1.

Run via ``make findings-check FILE=findings.jsonl`` (CI runs it against
the exports its findings-smoke job produces at two ``--jobs`` counts).
Like the metrics checker, the schema is deliberately boring: the file
is a stable machine surface for ``repro.cli findings diff`` and any
external triage tooling, so this checker fails the build the moment an
export stops conforming.

Schema v1, one JSON object per line:

* line 1: ``{"record": "meta", "schema": 1, ...}`` — any extra context
  keys (command, households, seed, vendors) are allowed, but never
  ``jobs``: the export must be byte-identical across worker counts;
* then ``finding`` records with ``code`` (str), ``title`` (str),
  ``severity`` (one of info/low/medium/high/critical), ``confidence``
  (number in [0, 1]), ``passed`` (bool), ``count`` (int >= 1) and
  ``evidence`` (list of objects, each with a string ``text`` plus
  optional structured pointers from the Evidence field set).

Finding records must arrive in the ledger's canonical sort order and
be pairwise distinct (identical findings dedupe into ``count``).
"""

from __future__ import annotations

import argparse
import json
import sys

SEVERITIES = ("info", "low", "medium", "high", "critical")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Evidence keys beyond ``text`` the model defines, with their types.
#: This checker runs standalone, so the scale above and this table are
#: copies of ``repro.findings.model``'s; ``tests/test_findings.py``
#: pins them equal.
EVIDENCE_POINTERS = {
    "capture": str,
    "household": int,
    "vendor": str,
    "country": str,
    "phase": str,
    "flow": str,
    "segment": int,
    "record_start": int,
    "record_end": int,
}

REQUIRED_FIELDS = ("code", "title", "severity", "confidence", "passed",
                   "count", "evidence")


def _fail(line_no: int, message: str) -> None:
    raise ValueError(f"line {line_no}: {message}")


def _check_evidence(entries, line_no: int) -> None:
    if not isinstance(entries, list):
        _fail(line_no, f"evidence must be a list, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, dict):
            _fail(line_no, "evidence entries must be JSON objects")
        if not isinstance(entry.get("text"), str):
            _fail(line_no, "evidence entry needs a string 'text'")
        for key, value in entry.items():
            if key == "text":
                continue
            expected = EVIDENCE_POINTERS.get(key)
            if expected is None:
                _fail(line_no, f"unknown evidence field {key!r}")
            if not isinstance(value, expected) \
                    or isinstance(value, bool):
                _fail(line_no, f"evidence field {key!r} must be "
                               f"{expected.__name__}, got {value!r}")


def _sort_key(record: dict) -> tuple:
    """Mirror of ``Finding.sort_key`` over the exported dict."""
    payload = {key: record[key] for key in record
               if key not in ("count", "record")}
    return (record["code"], -_SEVERITY_RANK[record["severity"]],
            json.dumps(payload, sort_keys=True))


def check_lines(lines) -> int:
    """Validate an iterable of JSONL lines; returns the record count.

    Raises ``ValueError`` with a ``line <n>:`` prefix on the first
    violation (the importable surface ``tests/test_findings.py``
    drives).
    """
    records = 0
    previous_key = None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            _fail(line_no, "blank line")
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            _fail(line_no, f"not JSON: {exc}")
        if not isinstance(record, dict):
            _fail(line_no, "record must be a JSON object")
        kind = record.get("record")
        if line_no == 1:
            if kind != "meta":
                _fail(line_no, "first record must be 'meta'")
            if record.get("schema") != 1:
                _fail(line_no, f"unsupported schema "
                               f"{record.get('schema')!r} (expected 1)")
            if "jobs" in record:
                _fail(line_no, "meta must not carry 'jobs' (exports "
                               "are jobs-invariant by contract)")
            continue
        if kind == "meta":
            _fail(line_no, "only line 1 may be 'meta'")
        if kind != "finding":
            _fail(line_no, f"unknown record kind {kind!r}")
        for field in REQUIRED_FIELDS:
            if field not in record:
                _fail(line_no, f"finding missing {field!r}")
        if not isinstance(record["code"], str) or not record["code"]:
            _fail(line_no, "finding needs a non-empty string code")
        if not isinstance(record["title"], str):
            _fail(line_no, "finding title must be a string")
        if record["severity"] not in SEVERITIES:
            _fail(line_no, f"unknown severity {record['severity']!r} "
                           f"(choose from {', '.join(SEVERITIES)})")
        confidence = record["confidence"]
        if not isinstance(confidence, (int, float)) \
                or isinstance(confidence, bool) \
                or not 0.0 <= confidence <= 1.0:
            _fail(line_no, f"confidence must be a number in [0, 1], "
                           f"got {confidence!r}")
        if not isinstance(record["passed"], bool):
            _fail(line_no, "passed must be a bool")
        count = record["count"]
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < 1:
            _fail(line_no, f"count must be an int >= 1, got {count!r}")
        _check_evidence(record["evidence"], line_no)
        key = _sort_key(record)
        if previous_key is not None and key <= previous_key:
            _fail(line_no, "finding records out of canonical order "
                           "(or duplicated)")
        previous_key = key
        records += 1
    return records


def main() -> int:
    parser = argparse.ArgumentParser(
        description="validate a findings JSONL export (schema v1)")
    parser.add_argument("path", help="findings.jsonl to check")
    args = parser.parse_args()
    try:
        with open(args.path, "r", encoding="utf-8") as fileobj:
            lines = fileobj.read().splitlines()
    except OSError as exc:
        print(f"check-findings: cannot read {args.path}: {exc}")
        return 1
    if not lines:
        print(f"check-findings: {args.path} is empty")
        return 1
    try:
        records = check_lines(lines)
    except ValueError as exc:
        print(f"check-findings: {args.path}: {exc}")
        return 1
    print(f"check-findings: {args.path} ok "
          f"({records} findings, schema 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
