"""An associative, order-insensitive container of findings.

``FindingsLedger`` is to findings what
:class:`~repro.fleet.aggregate.FleetAggregate` is to household
summaries and a :class:`~repro.obs.metrics.MetricsRegistry` snapshot is
to counters: a value with a fold (absorb one finding) and a merge
(combine two ledgers) that are associative and commutative in exact
arithmetic, so shard ledgers combine in any order and a ``--jobs 8``
export is byte-identical to a serial one.

Internally it is a Counter keyed by the frozen :class:`Finding` value —
identical findings (same code, verdict, severity, confidence and
evidence) dedupe into a count, and iteration is always in the canonical
:meth:`Finding.sort_key` order, which is what makes the JSONL export
deterministic.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from .model import Finding


class FindingsLedger:
    """Counted, mergeable, canonically ordered findings."""

    __slots__ = ("_counts",)

    def __init__(self, findings: Iterable[Finding] = ()) -> None:
        self._counts: Counter = Counter()
        for finding in findings:
            self.fold(finding)

    # -- accumulation -----------------------------------------------------------

    def fold(self, finding: Finding, count: int = 1) -> "FindingsLedger":
        """Absorb one finding (``count`` occurrences of it).

        A zero count is dropped rather than materialized, mirroring the
        ``_add_nonzero`` discipline of ``FleetAggregate``: ledgers that
        describe the same findings always compare equal, whatever fold
        path produced them.
        """
        if not isinstance(finding, Finding):
            raise TypeError(f"ledger folds Finding values, "
                            f"got {type(finding).__name__}")
        if count < 0:
            raise ValueError("finding count cannot be negative")
        if count:
            self._counts[finding] += count
        return self

    def extend(self, findings: Iterable[Finding]) -> "FindingsLedger":
        for finding in findings:
            self.fold(finding)
        return self

    def merge(self, other: "FindingsLedger") -> "FindingsLedger":
        """A new ledger combining two (associative + commutative)."""
        merged = FindingsLedger()
        for part in (self, other):
            for finding, count in part._counts.items():
                merged.fold(finding, count)
        return merged

    def __add__(self, other: "FindingsLedger") -> "FindingsLedger":
        if not isinstance(other, FindingsLedger):
            return NotImplemented
        return self.merge(other)

    # -- queries ----------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[Finding, int]]:
        """(finding, count) pairs in canonical export order."""
        for finding in sorted(self._counts,
                              key=lambda item: item.sort_key()):
            yield finding, self._counts[finding]

    def findings(self) -> List[Finding]:
        return [finding for finding, __ in self]

    def failed(self) -> List[Finding]:
        """The findings that assert a violation (canonical order)."""
        return [finding for finding, __ in self if not finding.passed]

    def total(self) -> int:
        """Occurrences across every distinct finding."""
        return sum(self._counts.values())

    def __len__(self) -> int:
        """Distinct findings."""
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FindingsLedger)
                and self._counts == other._counts)

    def __repr__(self) -> str:
        failed = sum(count for finding, count in self._counts.items()
                     if not finding.passed)
        return (f"FindingsLedger({len(self._counts)} distinct, "
                f"{self.total()} total, {failed} failing)")

    # -- serialization ----------------------------------------------------------

    def to_jsonable(self) -> List[Dict[str, object]]:
        """Canonical JSON-safe form (sorted; counts explicit)."""
        records = []
        for finding, count in self:
            record = finding.to_dict()
            record["count"] = count
            records.append(record)
        return records

    @classmethod
    def from_jsonable(cls, records: Iterable[Mapping[str, object]]
                      ) -> "FindingsLedger":
        ledger = cls()
        for record in records:
            payload = dict(record)
            count = int(payload.pop("count", 1))
            payload.pop("record", None)
            ledger.fold(Finding.from_dict(payload), count)
        return ledger

