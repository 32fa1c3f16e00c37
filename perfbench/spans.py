"""Outside-in tracing for the benchmark: nested spans, self time and the
percentile rule.

The benchmark never edits the program to trace it.  A :class:`Tracer`
wraps public functions and methods of the program's modules for the
duration of one traced run (:meth:`Tracer.wrapping`), so every call the
workload makes into a layer opens a span.  Spans nest: a span's self
time is its duration minus the time its child spans cover, which is
what lets a layer table add up to the traced body.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

#: Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (which must be non-empty)."""
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the ``pct`` percentile."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it, or ``None`` when there are too few samples for any."""
    for pct in TAIL_PERCENTILES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Sample count, median and (where the rule allows) the tail."""
    summary: Dict[str, float] = {"n": len(samples)}
    if not samples:
        return summary
    summary["p50"] = percentile(samples, 50.0)
    tail = tail_percentile(len(samples))
    if tail is not None:
        summary[f"p{tail:g}"] = percentile(samples, tail)
    return summary


class _Layer:
    __slots__ = ("durations", "self_times")

    def __init__(self) -> None:
        self.durations: List[float] = []
        self.self_times: List[float] = []


class Tracer:
    """Nested wall-clock spans kept in memory, plus named counters.

    ``clock`` is injectable so tests can drive exact times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.layers: Dict[str, _Layer] = {}
        self.counters: Dict[str, float] = {}
        #: One entry per open span: the time its children used so far.
        self._child_time: List[float] = []

    @contextlib.contextmanager
    def span(self, name: str):
        started = self.clock()
        self._child_time.append(0.0)
        try:
            yield
        finally:
            duration = self.clock() - started
            children = self._child_time.pop()
            layer = self.layers.get(name)
            if layer is None:
                layer = self.layers[name] = _Layer()
            layer.durations.append(duration)
            layer.self_times.append(duration - children)
            if self._child_time:
                self._child_time[-1] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def samples(self, name: str) -> List[float]:
        layer = self.layers.get(name)
        return list(layer.durations) if layer else []

    def total(self, name: str) -> float:
        return sum(self.samples(name))

    # -- wrapping the program's public calls ----------------------------------

    def wrap(self, name: Union[str, Callable[..., str]], function: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``function`` with every call timed as span ``name`` (or, if
        ``name`` is callable, the span ``name(*args, **kwargs)``).

        ``observe(tracer, args, kwargs, result)`` runs after the call,
        outside the span, to record counts from the call's result.
        """
        tracer = self

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                result = function(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def wrapping(self, targets: Iterable[Tuple]):
        """Install wrappers for the block; always restore the originals.

        Each target is ``(owner, attribute, span name[, observe])``
        where ``owner`` is a module or a class.  A class attribute that
        is a classmethod stays one.  A missing attribute raises
        ``AttributeError`` before anything is patched, so a renamed
        layer fails the traced run instead of silently vanishing.
        """
        plan = []
        for target in targets:
            owner, attribute, name = target[:3]
            observe = target[3] if len(target) > 3 else None
            raw = vars(owner)[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            if isinstance(raw, classmethod):
                replacement = classmethod(
                    self.wrap(name, raw.__func__, observe))
            else:
                replacement = self.wrap(name, raw, observe)
            plan.append((owner, attribute, raw, replacement))
        try:
            for owner, attribute, __, replacement in plan:
                setattr(owner, attribute, replacement)
            yield self
        finally:
            for owner, attribute, raw, __ in reversed(plan):
                setattr(owner, attribute, raw)

    # -- the layer table ------------------------------------------------------

    def table(self, body: str) -> List[Dict[str, object]]:
        """One row per span name: samples, p50/tail in ms, self time and
        self-time share of span ``body`` (the traced workload body)."""
        body_total = self.total(body)
        rows = []
        for name in sorted(self.layers):
            layer = self.layers[name]
            row: Dict[str, object] = {"layer": name}
            for key, value in summarize(layer.durations).items():
                row[key] = value if key == "n" else value * 1e3
            row["total_ms"] = sum(layer.durations) * 1e3
            row["self_ms"] = sum(layer.self_times) * 1e3
            row["self_share"] = (sum(layer.self_times) / body_total
                                 if body_total else 0.0)
            rows.append(row)
        return rows
