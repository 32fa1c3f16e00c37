"""Metrics core: counters, gauges, histograms, spans — mergeable.

Observability here follows the same discipline as
:class:`~repro.fleet.aggregate.FleetAggregate`: every instrument
accumulates into plain numbers, a :meth:`MetricsRegistry.snapshot` is a
plain dict, and :meth:`MetricsRegistry.absorb` folds snapshots into a
registry under rules that are associative *and* commutative —

* **counters** merge by summing,
* **gauges** merge by ``max`` (the peak discipline: a fleet-wide gauge
  is the highest value any shard saw),
* **histograms** have *fixed* bucket bounds per name, so per-bucket
  counts (and count/sum/min/max) merge bucket-wise.

Shard workers therefore collect into a fresh registry and ship the
snapshot back beside their :class:`FleetAggregate`; the parent absorbs
shard snapshots in any order and the totals are independent of
``--jobs`` (``tests/test_obs.py`` asserts this the same way the fleet
suite pins aggregate merges).

The module keeps one *active* registry.  By default it is the
:data:`NULL` no-op singleton: every instrumentation site in the hot
layers calls ``get_registry().inc(...)`` unconditionally, and when
observability is off that is one attribute lookup plus an empty method
— undashboarded runs stay byte-identical and effectively free.
:func:`enable` swaps in a live registry (the CLI does this for
``--dashboard`` / ``--metrics-out``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Tuple

#: Bump on any incompatible change to the snapshot / JSONL schema.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds, in milliseconds (log-spaced;
#: the last implicit bucket is +inf).  Spans for simulate/decode/
#: checkpoint all land comfortably inside this range.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0, 30000.0)


class _Histogram:
    """Fixed-bucket histogram: counts per bucket + count/sum/min/max."""

    __slots__ = ("bounds", "bucket_counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def to_dict(self) -> Dict[str, object]:
        return {
            "le": list(self.bounds),
            "counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class NullRegistry:
    """The disabled registry: every instrument is a no-op.

    Kept deliberately method-compatible with :class:`MetricsRegistry`
    so call sites never branch.
    """

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def gauge_set(self, name: str, value: float) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float,
                bounds: Tuple[float, ...] = DEFAULT_BUCKETS_MS) -> None:
        pass

    @contextmanager
    def span(self, name: str):
        yield

    def absorb(self, snapshot: Optional[Mapping[str, object]]) -> None:
        pass

    def snapshot(self) -> Optional[Dict[str, object]]:
        return None


class MetricsRegistry:
    """A live metrics sink (see the module docstring for merge rules)."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, _Histogram] = {}

    # -- instruments ------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge_set(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: float,
                bounds: Tuple[float, ...] = DEFAULT_BUCKETS_MS) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = _Histogram(bounds)
        histogram.observe(value)

    @contextmanager
    def span(self, name: str):
        """Time a block: wall ms into ``<name>.wall_ms``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(f"{name}.wall_ms",
                         (time.perf_counter() - started) * 1e3)

    # -- snapshots --------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict, JSON-safe, mergeable view of this registry."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: histogram.to_dict()
                           for name, histogram
                           in sorted(self.histograms.items())},
        }

    def absorb(self, snapshot: Optional[Mapping[str, object]]) -> None:
        """Merge a snapshot (e.g. from a shard worker) into this live
        registry, under the merge rules in the module docstring."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge_max(name, value)
        for name, entry in snapshot.get("histograms", {}).items():
            bounds = tuple(entry["le"])
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = _Histogram(bounds)
            elif histogram.bounds != bounds:
                raise ValueError(
                    f"histogram {name!r}: bucket bounds differ")
            for index, count in enumerate(entry["counts"]):
                histogram.bucket_counts[index] += count
            histogram.count += entry["count"]
            histogram.total += entry["sum"]
            for attr, pick in (("minimum", min), ("maximum", max)):
                incoming = entry["min" if attr == "minimum" else "max"]
                if incoming is None:
                    continue
                current = getattr(histogram, attr)
                setattr(histogram, attr,
                        incoming if current is None
                        else pick(current, incoming))


# -- snapshot algebra ---------------------------------------------------------


# -- the active registry ------------------------------------------------------

#: The process-wide no-op singleton (identity comparison is the
#: "is observability on?" check).
NULL = NullRegistry()

_active = NULL


def get_registry():
    """The active registry (the :data:`NULL` no-op when disabled)."""
    return _active


def metrics_enabled() -> bool:
    return _active is not NULL


def enable() -> MetricsRegistry:
    """Install (and return) a new live registry as the active one."""
    global _active
    _active = MetricsRegistry()
    return _active


def disable() -> None:
    """Back to the no-op singleton."""
    global _active
    _active = NULL


@contextmanager
def scoped(collect: bool = True):
    """A fresh registry active for the duration of the block.

    Yields the registry (or ``None`` when ``collect`` is false) and
    restores the previous active registry on exit.  Shard workers run
    under this so their snapshot contains exactly their own work — in
    forked children *and* in the in-process ``--jobs 1`` path.
    """
    if not collect:
        yield None
        return
    global _active
    previous = _active
    registry = MetricsRegistry()
    _active = registry
    try:
        yield registry
    finally:
        _active = previous


# -- JSONL export -------------------------------------------------------------


def snapshot_to_jsonl(snapshot: Mapping[str, object],
                      meta: Optional[Mapping[str, object]] = None) -> str:
    """Render a snapshot as stable-schema JSONL (one record per line).

    Line 1 is a ``meta`` record carrying the schema version plus any
    caller context (command, population size, ...); then one record per
    counter, gauge and histogram, sorted by kind then name, so the
    export is deterministic given the snapshot.
    ``scripts/check_metrics.py`` validates this schema in CI.
    """
    lines: List[str] = []
    header: Dict[str, object] = {
        "record": "meta",
        "schema": snapshot.get("schema", METRICS_SCHEMA_VERSION),
    }
    for key, value in (meta or {}).items():
        header[key] = value
    lines.append(json.dumps(header, sort_keys=True))
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(json.dumps(
            {"record": "counter", "name": name, "value": value},
            sort_keys=True))
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(json.dumps(
            {"record": "gauge", "name": name, "value": value},
            sort_keys=True))
    for name, entry in sorted(snapshot.get("histograms", {}).items()):
        record = {"record": "histogram", "name": name}
        record.update(entry)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def write_metrics_jsonl(path: str, snapshot: Mapping[str, object],
                        meta: Optional[Mapping[str, object]] = None) -> None:
    """Atomically write the JSONL export of one snapshot."""
    from ..util import atomic_write_text
    atomic_write_text(path, snapshot_to_jsonl(snapshot, meta))
