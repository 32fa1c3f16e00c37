"""Validate a ``--metrics-out`` JSONL export against schema v1.

Run via ``make metrics-check FILE=metrics.jsonl`` (CI runs it against
the artifact produced by its small ``fleet --plain --metrics-out``
job).  The schema is deliberately boring — that is the point: the file
is a stable machine-readable surface other tooling can build on, so
this checker fails the build the moment an export stops conforming.

Schema v1, one JSON object per line:

* line 1: ``{"record": "meta", "schema": 1, ...}`` — any extra context
  keys (command, households, seed, jobs) are allowed;
* then ``counter`` records: ``name`` (str), ``value`` (int >= 0);
* then ``gauge`` records: ``name`` (str), ``value`` (int/float);
* then ``histogram`` records: ``name``, ``le`` (strictly increasing
  bounds), ``counts`` (len(le)+1 non-negative ints summing to
  ``count``), ``count``, ``sum``, ``min``, ``max``.

Names must be unique within their record kind.
"""

from __future__ import annotations

import argparse
import json
import sys

KINDS = ("counter", "gauge", "histogram")


def _fail(line_no: int, message: str) -> None:
    raise ValueError(f"line {line_no}: {message}")


def _check_counter(record: dict, line_no: int) -> None:
    value = record.get("value")
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        _fail(line_no, f"counter value must be a non-negative int, "
                       f"got {value!r}")


def _check_gauge(record: dict, line_no: int) -> None:
    value = record.get("value")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(line_no, f"gauge value must be numeric, got {value!r}")


def _check_histogram(record: dict, line_no: int) -> None:
    for key in ("le", "counts", "count", "sum"):
        if key not in record:
            _fail(line_no, f"histogram missing {key!r}")
    bounds = record["le"]
    counts = record["counts"]
    if not isinstance(bounds, list) \
            or not all(isinstance(b, (int, float)) for b in bounds):
        _fail(line_no, "histogram bounds must be a list of numbers")
    if not isinstance(counts, list):
        _fail(line_no, "histogram counts must be a list")
    if any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
        _fail(line_no, "histogram bounds must be strictly increasing")
    if len(counts) != len(bounds) + 1:
        _fail(line_no, f"histogram needs len(le)+1 buckets "
                       f"({len(bounds) + 1}), got {len(counts)}")
    if not all(isinstance(c, int) and not isinstance(c, bool) and c >= 0
               for c in counts):
        _fail(line_no, "bucket counts must be non-negative ints")
    if sum(counts) != record["count"]:
        _fail(line_no, f"bucket counts sum to {sum(counts)}, "
                       f"count says {record['count']}")
    if record["count"] and (record.get("min") is None
                            or record.get("max") is None):
        _fail(line_no, "non-empty histogram needs min and max")


_CHECKS = {"counter": _check_counter, "gauge": _check_gauge,
           "histogram": _check_histogram}


def check_lines(lines) -> int:
    """Validate an iterable of JSONL lines; returns the record count.

    Raises ``ValueError`` with a ``line <n>:`` prefix on the first
    violation (the importable surface ``tests/test_obs.py`` drives).
    """
    seen = {kind: set() for kind in KINDS}
    records = 0
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
            continue
        if kind == "meta":
            _fail(line_no, "only line 1 may be 'meta'")
        if kind not in KINDS:
            _fail(line_no, f"unknown record kind {kind!r}")
        name = record.get("name")
        if not isinstance(name, str) or not name:
            _fail(line_no, f"{kind} needs a non-empty string name")
        if name in seen[kind]:
            _fail(line_no, f"duplicate {kind} {name!r}")
        seen[kind].add(name)
        _CHECKS[kind](record, line_no)
        records += 1
    if not records and not seen:
        raise ValueError("empty file (expected at least a meta record)")
    return records


def main() -> int:
    parser = argparse.ArgumentParser(
        description="validate a metrics JSONL export (schema v1)")
    parser.add_argument("path", help="metrics.jsonl to check")
    args = parser.parse_args()
    try:
        with open(args.path, "r", encoding="utf-8") as fileobj:
            lines = fileobj.read().splitlines()
    except OSError as exc:
        print(f"check-metrics: cannot read {args.path}: {exc}")
        return 1
    if not lines:
        print(f"check-metrics: {args.path} is empty")
        return 1
    try:
        records = check_lines(lines)
    except ValueError as exc:
        print(f"check-metrics: {args.path}: {exc}")
        return 1
    print(f"check-metrics: {args.path} ok "
          f"({records} records, schema 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
