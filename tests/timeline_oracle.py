"""The dense timeline oracle for ``repro.analysis.timeline``.

``DenseTimeline``/``dense_binned`` keep every bin of the window as an
int64 count, the way timelines were held before they went sparse.
``from_counts`` builds the production (sparse) timeline from a list of
per-bin counts, for tests that state a timeline bin by bin, and
``dense_counts`` turns a sparse timeline back into them.
``active_bins``, ``spike_times_ns`` and ``rebin`` are the sparse
timeline's queries that no figure reads, kept to hold the sparse form
to the dense one.
"""

from typing import List

import numpy as np

from repro.analysis.timeline import Timeline


class DenseTimeline:
    """Binned packet counts over a window, one int64 per bin."""

    def __init__(self, counts: np.ndarray, start_ns: int,
                 bin_ns: int) -> None:
        self.counts = counts
        self.start_ns = start_ns
        self.bin_ns = bin_ns

    @property
    def duration_ns(self) -> int:
        return len(self.counts) * self.bin_ns

    @property
    def total_packets(self) -> int:
        return int(self.counts.sum())

    @property
    def peak(self) -> int:
        return int(self.counts.max()) if len(self.counts) else 0

    @property
    def active_bins(self) -> int:
        return int((self.counts > 0).sum())

    def spike_times_ns(self) -> List[int]:
        indexes = np.nonzero(self.counts)[0]
        return [int(i) * self.bin_ns for i in indexes]

    def rebin(self, factor: int) -> "DenseTimeline":
        if factor <= 0:
            raise ValueError("factor must be positive")
        n = len(self.counts) // factor * factor
        coarse = self.counts[:n].reshape(-1, factor).sum(axis=1)
        return DenseTimeline(coarse, self.start_ns, self.bin_ns * factor)

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return (f"Timeline({len(self.counts)} bins x "
                f"{self.bin_ns / 1e6:.0f}ms, peak={self.peak}, "
                f"packets={self.total_packets})")


def dense_binned(timestamps, start_ns: int, end_ns: int,
                 bin_ns: int) -> DenseTimeline:
    """Counts over [start_ns, end_ns), one timestamp at a time."""
    if end_ns <= start_ns:
        raise ValueError("window ends before it starts")
    n_bins = -(-(end_ns - start_ns) // bin_ns)
    counts = np.zeros(n_bins, dtype=np.int64)
    for timestamp in timestamps:
        if start_ns <= timestamp < end_ns:
            counts[(timestamp - start_ns) // bin_ns] += 1
    return DenseTimeline(counts, start_ns, bin_ns)


def from_counts(counts, start_ns: int = 0,
                bin_ns: int = 1_000_000) -> Timeline:
    """The sparse :class:`Timeline` whose bins hold ``counts``."""
    counts = np.asarray(counts, dtype=np.int64)
    indexes = np.flatnonzero(counts)
    return Timeline(indexes, counts[indexes], len(counts), start_ns,
                    bin_ns)


def active_bins(timeline: Timeline) -> int:
    return len(timeline.indexes)


def spike_times_ns(timeline: Timeline) -> List[int]:
    """Timestamps (window-relative) of every non-empty bin."""
    return [index * timeline.bin_ns for index in timeline.indexes.tolist()]


def rebin(timeline: Timeline, factor: int) -> Timeline:
    """Coarser view (e.g. ms -> s) by summing adjacent bins; a tail
    shorter than ``factor`` bins is dropped."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    n_bins = timeline.n_bins // factor
    kept = timeline.indexes < n_bins * factor
    coarse, starts = np.unique(timeline.indexes[kept] // factor,
                               return_index=True)
    return Timeline(coarse, np.add.reduceat(timeline.values[kept], starts),
                    n_bins, timeline.start_ns, timeline.bin_ns * factor)


def dense_counts(timeline: Timeline) -> np.ndarray:
    """Every bin's count of a sparse :class:`Timeline`, empty bins
    included."""
    counts = np.zeros(timeline.n_bins, dtype=np.int64)
    counts[timeline.indexes] = timeline.values
    return counts
