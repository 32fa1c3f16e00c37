"""Cumulative bytes-over-time curves — Figures 5 and 7.

"the CDF of data transferred to ACR domains (in bytes) in each scenario
during the LIn-OIn and LOut-OIn phases."
"""

from __future__ import annotations

import numpy as np

from ..net.columnar import ColumnarSlice
from ..sim.clock import NS_PER_SECOND


class CumulativeCurve:
    """Cumulative transmitted bytes as a function of capture time."""

    def __init__(self, times_s: np.ndarray, cumulative_bytes: np.ndarray
                 ) -> None:
        if len(times_s) != len(cumulative_bytes):
            raise ValueError("length mismatch")
        self.times_s = times_s
        self.cumulative_bytes = cumulative_bytes

    @property
    def total_bytes(self) -> int:
        return int(self.cumulative_bytes[-1]) if len(
            self.cumulative_bytes) else 0

    def __len__(self) -> int:
        return len(self.times_s)

    def __repr__(self) -> str:
        return (f"CumulativeCurve({len(self)} points, "
                f"total={self.total_bytes}B)")


def cumulative_bytes(packets: ColumnarSlice,
                     start_ns: int, end_ns: int,
                     sent_only_from=None) -> CumulativeCurve:
    """Build the curve over a window, straight from the capture's
    timestamp and length columns.

    ``sent_only_from``: when given an address, count only bytes the TV
    *transmitted* (the paper plots "bytes transmitted to ACR domains").
    Points are ordered by ``(time, length)``.
    """
    if end_ns <= start_ns:
        raise ValueError("window ends before it starts")
    capture, rows = packets.capture, packets.indices
    ts = capture.ts[rows]
    keep = (ts >= start_ns) & (ts < end_ns)
    if sent_only_from is not None:
        keep &= capture.src[rows] == np.uint32(sent_only_from.value)
        keep &= capture.proto[rows] >= 0
    ts = ts[keep]
    sizes = capture.length[rows][keep]
    times = (ts - start_ns) / NS_PER_SECOND
    order = np.lexsort((sizes, times))
    times = times[order]
    sizes = sizes[order]
    return CumulativeCurve(times, np.cumsum(sizes) if len(sizes)
                           else sizes)


def median_step_interval_s(curve: CumulativeCurve) -> float:
    """Median spacing between transmission events — the periodicity view
    of the CDF ("distinctions in the data transfer periodicity")."""
    if len(curve) < 2:
        return float("inf")
    gaps = np.diff(curve.times_s)
    gaps = gaps[gaps > 0.5]  # ignore intra-burst spacing
    if len(gaps) == 0:
        return 0.0
    return float(np.median(gaps))
