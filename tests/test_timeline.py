"""Sparse timelines against the dense oracle (``timeline_oracle``).

Every query and ``rebin`` of a sparse
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
from repro.sim.clock import NS_PER_MS, NS_PER_SECOND, minutes


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
    def test_queries_and_rebin(self, window, factor):
        stamps, start, end, bin_ns = window
        dense = oracle.dense_binned(stamps, start, end, bin_ns)
        packets = [SimpleNamespace(timestamp=t) for t in stamps]
        sparse = _binned(packets, start, end, bin_ns)
        assert_same(sparse, dense)
        assert_same(sparse.rebin(factor), dense.rebin(factor))

    @given(windows(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_rebin_equals_binning_at_the_wider_width(self, window, factor):
        """Over whole coarse bins, summing ``factor`` bins equals
        binning at ``factor`` times the width."""
        stamps, start, end, bin_ns = window
        coarse = bin_ns * factor
        end = start + coarse * max(1, (end - start) // coarse)
        packets = [SimpleNamespace(timestamp=t) for t in stamps]
        assert_same(_binned(packets, start, end, bin_ns).rebin(factor),
                    oracle.dense_binned(stamps, start, end, coarse))

    def test_rebin_rejects_nonpositive_factor(self):
        sparse = oracle.from_counts([1, 0, 2])
        for factor in (0, -3):
            with pytest.raises(ValueError):
                sparse.rebin(factor)


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

    def test_second_bins_equal_rebinned_ms(self, lg_uk_linear_pipeline):
        pipeline = lg_uk_linear_pipeline
        packets = pipeline.packets_for_all(
            pipeline.acr_candidate_domains())
        start, end = minutes(10), minutes(20)
        per_s = _binned(packets, start, end, NS_PER_SECOND)
        per_ms = packets_per_ms(packets, start, end).rebin(1000)
        assert per_s.total_packets > 0
        assert_same(per_ms, oracle.dense_binned(
            (p.timestamp for p in packets), start, end, NS_PER_SECOND))
        assert np.array_equal(per_s.indexes, per_ms.indexes)
        assert np.array_equal(per_s.values, per_ms.values)
