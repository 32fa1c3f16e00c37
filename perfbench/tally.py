"""Failure accounting for the benchmark's operations.

An operation is a household (fleet and serve workloads) or a grid cell
(the scorecard).  One body iteration covers many operations; if it
raises, or its output fails the workload's check, every operation in it
counts as failed.  A failure is recorded, never raised: the benchmark
keeps measuring and reports ``failed`` against ``attempted``.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def attempt(self, ops: int, produce: Callable[[], object],
                check: Callable[[object], Optional[str]]
                ) -> Tuple[float, object]:
        """Time ``produce()``, then check its output.

        Returns ``(seconds spent in produce, output or None)``.  The
        check runs outside the timed region.
        """
        self.attempted += ops
        started = time.perf_counter()
        try:
            output = produce()
        except Exception as exc:  # a failed operation, not a crash
            elapsed = time.perf_counter() - started
            self.fail(ops, f"{type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - started
        problem = check(output)
        if problem is not None:
            self.fail(ops, problem)
        return elapsed, output

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        self.failures.append(reason)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
