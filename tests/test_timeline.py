"""Sparse timelines against the dense oracle (``timeline_oracle``).

Every query, ``rebin``, the CSV export and the ASCII plot of a sparse
:class:`~repro.analysis.timeline.Timeline` must read exactly what the
dense per-bin array it replaced reads.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timeline_oracle as oracle
from repro.analysis.timeline import _binned, packets_per_ms
from repro.experiments.fig_timelines import WINDOW_MINUTES, WINDOW_START
from repro.reporting import plot_timeline, timeline_to_csv
from repro.sim.clock import NS_PER_MS, minutes


def assert_same(sparse, dense):
    assert len(sparse) == len(dense)
    assert sparse.start_ns == dense.start_ns
    assert sparse.bin_ns == dense.bin_ns
    assert sparse.duration_ns == dense.duration_ns
    assert sparse.total_packets == dense.total_packets
    assert sparse.peak == dense.peak
    assert sparse.active_bins == dense.active_bins
    assert sparse.spike_times_ns() == dense.spike_times_ns()
    assert repr(sparse) == repr(dense)
    assert np.array_equal(oracle.dense_counts(sparse), dense.counts)
    assert timeline_to_csv(sparse) == oracle.timeline_to_csv(dense)


@st.composite
def windows(draw):
    """(timestamps, start, end, bin width): stamps before, inside and
    after the window and on its edges, with repeats so several land in
    one bin."""
    bin_ns = draw(st.integers(min_value=1, max_value=400))
    start = draw(st.integers(min_value=1, max_value=10 ** 9))
    length = draw(st.integers(min_value=1, max_value=3000))
    end = start + length
    stamps = draw(st.lists(
        st.integers(min_value=max(0, start - length),
                    max_value=end + length), max_size=60))
    stamps += draw(st.lists(st.sampled_from([start - 1, start, end - 1,
                                             end]), max_size=4))
    if stamps:
        stamps += draw(st.lists(st.sampled_from(stamps), max_size=20))
    return stamps, start, end, bin_ns


class TestAgainstDenseOracle:
    @given(windows(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_queries_rebin_csv_and_plot(self, window, factor):
        stamps, start, end, bin_ns = window
        dense = oracle.dense_binned(stamps, start, end, bin_ns)
        packets = [SimpleNamespace(timestamp=t) for t in stamps]
        sparse = _binned(packets, start, end, bin_ns)
        assert_same(sparse, dense)
        assert_same(sparse.rebin(factor), dense.rebin(factor))
        for width in {1, len(dense) - 1, len(dense), len(dense) + 3, 7, 80}:
            if width >= 1:
                assert plot_timeline(sparse, width, "x") == \
                    oracle.plot_timeline(dense, width, "x")

    def test_rebin_rejects_nonpositive_factor(self):
        sparse = oracle.from_counts([1, 0, 2])
        for factor in (0, -3):
            with pytest.raises(ValueError):
                sparse.rebin(factor)


class TestPlotSlices:
    """``plot_timeline`` cuts the bins where ``np.array_split`` does."""

    @pytest.mark.parametrize("n_bins,width", [(403, 40), (23, 40)])
    def test_each_bin_alone_lands_in_its_array_split_column(self, n_bins,
                                                            width):
        for index in range(n_bins):
            counts = np.zeros(n_bins, dtype=np.int64)
            counts[index] = 1
            dense = oracle.DenseTimeline(counts, 0, NS_PER_MS)
            assert plot_timeline(oracle.from_counts(counts), width) == \
                oracle.plot_timeline(dense, width)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            plot_timeline(oracle.from_counts([1, 2]), width=0)


class TestFigureWindow:
    def test_real_capture_matches_oracle(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        packets = pipeline.packets_for_all(
            pipeline.acr_candidate_domains())
        start = WINDOW_START
        end = start + minutes(WINDOW_MINUTES)
        sparse = packets_per_ms(packets, start, end)
        dense = oracle.dense_binned((p.timestamp for p in packets), start,
                                    end, NS_PER_MS)
        assert sparse.total_packets > 0
        assert_same(sparse, dense)
        assert_same(sparse.rebin(1000), dense.rebin(1000))
        for width in (64, 72, 80):
            assert plot_timeline(sparse, width, "Antenna") == \
                oracle.plot_timeline(dense, width, "Antenna")
