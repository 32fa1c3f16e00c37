"""Traffic timelines: the packets-per-millisecond series of Figures 4/6.

"The data is presented in a packet-per-millisecond format, where each spike
corresponds to a single millisecond slot."
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..net.columnar import ColumnarSlice
from ..sim.clock import NS_PER_MS, NS_PER_SECOND


class Timeline:
    """Packet counts over ``n_bins`` consecutive bins of ``bin_ns`` from
    ``start_ns``, held sparse.

    ``indexes`` are the non-empty bins in ascending order and ``values``
    their packet counts (all positive); every other bin is empty.  Each
    non-empty bin costs 16 bytes where a dense array costs 8 per bin, so
    the sparse form is the smaller one until more than half the bins
    carry a packet: a figure window is 600,000 one-millisecond bins
    holding at most a few hundred spikes.
    """

    def __init__(self, indexes: np.ndarray, values: np.ndarray,
                 n_bins: int, start_ns: int, bin_ns: int) -> None:
        self.indexes = indexes
        self.values = values
        self.n_bins = n_bins
        self.start_ns = start_ns
        self.bin_ns = bin_ns

    @property
    def duration_ns(self) -> int:
        return self.n_bins * self.bin_ns

    @property
    def total_packets(self) -> int:
        return int(self.values.sum())

    @property
    def peak(self) -> int:
        return int(self.values.max()) if len(self.values) else 0

    def __len__(self) -> int:
        return self.n_bins

    def __repr__(self) -> str:
        return (f"Timeline({self.n_bins} bins x "
                f"{self.bin_ns / 1e6:.0f}ms, peak={self.peak}, "
                f"packets={self.total_packets})")


def packets_per_ms(packets: ColumnarSlice, start_ns: int,
                   end_ns: int) -> Timeline:
    """Millisecond-binned counts over [start_ns, end_ns)."""
    return _binned(packets, start_ns, end_ns, NS_PER_MS)


def _binned(packets: ColumnarSlice, start_ns: int, end_ns: int,
            bin_ns: int) -> Timeline:
    if end_ns <= start_ns:
        raise ValueError("window ends before it starts")
    n_bins = -(-(end_ns - start_ns) // bin_ns)
    times = np.fromiter((packet.timestamp for packet in packets),
                        dtype=np.int64)
    times = times[(times >= start_ns) & (times < end_ns)]
    indexes, values = np.unique((times - start_ns) // bin_ns,
                                return_counts=True)
    return Timeline(indexes, values, n_bins, start_ns, bin_ns)


def burst_times_ns(packets: ColumnarSlice,
                   gap_ns: int = NS_PER_SECOND) -> List[int]:
    """Start timestamps of packet bursts (gaps > ``gap_ns`` split bursts)."""
    times = sorted(p.timestamp for p in packets)
    if not times:
        return []
    bursts = [times[0]]
    last = times[0]
    for t in times[1:]:
        if t - last > gap_ns:
            bursts.append(t)
        last = t
    return bursts

