"""CSV/JSON export of analysis artifacts."""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Sequence

from ..analysis.cdf import CumulativeCurve
from ..analysis.timeline import Timeline


def table_to_csv(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(list(row))
    return buffer.getvalue()


def timeline_to_csv(timeline: Timeline) -> str:
    """Columns: bin start (ns, window relative), packet count."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["bin_start_ns", "packets"])
    for index, count in zip(timeline.indexes.tolist(),
                            timeline.values.tolist()):
        writer.writerow([index * timeline.bin_ns, count])
    return buffer.getvalue()


def cdf_to_csv(curve: CumulativeCurve) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time_s", "cumulative_bytes"])
    for t, b in zip(curve.times_s, curve.cumulative_bytes):
        writer.writerow([f"{t:.6f}", int(b)])
    return buffer.getvalue()


def findings_to_json(findings: List[Any]) -> str:
    """Serialize ACR-domain findings (or any __slots__ records)."""
    out: List[Dict[str, Any]] = []
    for finding in findings:
        record: Dict[str, Any] = {}
        for slot in getattr(finding, "__slots__", ()):
            value = getattr(finding, slot)
            if hasattr(value, "__slots__"):
                value = repr(value)
            record[slot] = value
        out.append(record)
    return json.dumps(out, indent=2, default=str)
