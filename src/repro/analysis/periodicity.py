"""Burst-interval analysis: detect the 15 s / 60 s ACR cadences and score
contact regularity.

This implements the paper's third validation bullet: ACR domains "showed
regular contact patterns, unlike other ad/tracking domains like
samsungads.com" — plus the cadence findings themselves ("we observe
network traffic every 15 seconds", "communication occurs once per
minute").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..net.columnar import ColumnarSlice
from ..sim.clock import NS_PER_SECOND
from .timeline import burst_times_ns

REGULAR_CV_THRESHOLD = 0.25  # coefficient of variation below => regular


class PeriodicityReport:
    """Cadence statistics for one domain's traffic."""

    __slots__ = ("domain", "bursts", "period_s", "cv", "intervals_s")

    def __init__(self, domain: str, bursts: int,
                 period_s: Optional[float], cv: Optional[float],
                 intervals_s: List[float]) -> None:
        self.domain = domain
        self.bursts = bursts
        self.period_s = period_s
        self.cv = cv
        self.intervals_s = intervals_s

    @property
    def regular(self) -> bool:
        """True when bursts arrive on a stable clock."""
        return (self.cv is not None and self.cv < REGULAR_CV_THRESHOLD
                and self.bursts >= 5)

    def __repr__(self) -> str:
        period = f"{self.period_s:.1f}s" if self.period_s else "n/a"
        cv = f"{self.cv:.2f}" if self.cv is not None else "n/a"
        return (f"PeriodicityReport({self.domain}, {self.bursts} bursts, "
                f"period={period}, cv={cv})")


def analyze_periodicity(domain: str,
                        packets: ColumnarSlice) -> PeriodicityReport:
    """Burst detection (a gap over 2 s splits bursts) + inter-burst
    interval statistics."""
    bursts = burst_times_ns(packets, gap_ns=2 * NS_PER_SECOND)
    if len(bursts) < 2:
        return PeriodicityReport(domain, len(bursts), None, None, [])
    intervals = np.diff(np.array(bursts, dtype=np.float64)) / NS_PER_SECOND
    period = float(np.median(intervals))
    mean = float(np.mean(intervals))
    cv = float(np.std(intervals) / mean) if mean > 0 else None
    return PeriodicityReport(domain, len(bursts), period, cv,
                             [float(v) for v in intervals])

