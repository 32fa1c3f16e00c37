"""Tests for table rendering, ASCII plots and exports."""

import csv
import io
import json

import numpy as np
import pytest

from repro.analysis import CumulativeCurve
from repro.reporting import (cdf_to_csv, findings_to_json, kb, plot_cdf,
                             plot_timeline, plot_timelines,
                             render_markdown, render_table, table_to_csv,
                             timeline_to_csv)
from repro.reporting.ascii_plot import (LABEL_WIDTH, fit_label, meter,
                                        sparkline)
from timeline_oracle import from_counts


def _timeline(counts):
    return from_counts(counts, 0, 1_000_000)


def _curve():
    times = np.array([1.0, 2.0, 10.0])
    return CumulativeCurve(times, np.cumsum([100, 200, 700]))


class TestRenderTable:
    def test_contains_all_cells(self):
        out = render_table(["a", "b"], [["x", "1.5"], ["y", "-"]])
        assert "x" in out and "1.5" in out and "-" in out

    def test_title(self):
        out = render_table(["a"], [["1"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_column_widths_consistent(self):
        out = render_table(["col", "other"], [["longvalue", "1"]])
        lines = [l for l in out.splitlines() if l.startswith("|")]
        assert len({len(line) for line in lines}) == 1

    def test_markdown_form(self):
        out = render_markdown(["a", "b"], [["1", "2"]])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"

    def test_kb_format(self):
        assert kb(4759.66) == "4759.7"
        assert kb(0) == "0.0"


class TestPlots:
    def test_timeline_plot_width(self):
        out = plot_timeline(_timeline([0, 5, 0, 0] * 100), width=40,
                            label="Linear")
        assert "Linear" in out
        assert "peak=5" in out

    def test_empty_timeline(self):
        out = plot_timeline(_timeline([]), label="none")
        assert "empty" in out

    def test_all_zero_timeline(self):
        out = plot_timeline(_timeline([0] * 50), label="quiet")
        assert "peak=0" in out

    def test_multiple_timelines(self):
        out = plot_timelines([_timeline([1, 2]), _timeline([3, 4])],
                             ["a", "b"])
        assert out.count("|") >= 4

    def test_cdf_plot_shape(self):
        out = plot_cdf(_curve(), width=30, height=5, label="curve")
        lines = out.splitlines()
        assert lines[0] == "curve"
        assert any("#" in line for line in lines)

    def test_cdf_plot_empty(self):
        empty = CumulativeCurve(np.array([]), np.array([]))
        assert "no traffic" in plot_cdf(empty)


class TestAsciiPrimitives:
    def test_fit_label_pads_short_labels(self):
        assert fit_label("Linear") == "Linear" + " " * 18
        assert len(fit_label("Linear")) == LABEL_WIDTH

    def test_fit_label_truncates_with_ellipsis(self):
        long = "log-ingestion-eu.samsungacr.com uploads"
        fitted = fit_label(long)
        assert len(fitted) == LABEL_WIDTH
        assert fitted.endswith("...")
        assert fitted == long[:LABEL_WIDTH - 3] + "..."

    def test_fit_label_tiny_width(self):
        assert fit_label("abcdef", width=2) == "ab"

    def test_long_label_no_longer_breaks_timeline_alignment(self):
        # Regression: `{label:24s}` let an overlong label push the plot
        # body out of column; the fitted label pins the `|` position.
        short = plot_timeline(_timeline([1, 2]), width=10, label="a")
        long = plot_timeline(_timeline([1, 2]), width=10,
                             label="x" * 60)
        assert short.index("|") == long.index("|") == LABEL_WIDTH + 1

    def test_meter_bounds(self):
        assert meter(0.0, 4) == "[----]"
        assert meter(1.0, 4) == "[####]"
        assert meter(2.5, 4) == "[####]"  # clamped
        assert meter(0.5, 4) == "[##--]"

    def test_sparkline_resamples_to_width(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7], width=4)
        assert len(line) == 4
        assert line[-1] == "@"

    def test_sparkline_all_zero_is_blank(self):
        assert sparkline([0, 0, 0]) == "   "


class TestExports:
    def test_table_to_csv_roundtrip(self):
        out = table_to_csv(["a", "b"], [["1", "2"], ["3", "4"]])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_timeline_csv_skips_empty_bins(self):
        out = timeline_to_csv(_timeline([0, 3, 0, 7]))
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["bin_start_ns", "packets"]
        assert len(rows) == 3  # header + 2 non-empty bins

    def test_cdf_csv(self):
        out = cdf_to_csv(_curve())
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["time_s", "cumulative_bytes"]
        assert int(rows[-1][1]) == 1000

    def test_findings_json(self):
        class Dummy:
            __slots__ = ("name", "passed")

            def __init__(self):
                self.name = "s1"
                self.passed = True

        out = json.loads(findings_to_json([Dummy()]))
        assert out == [{"name": "s1", "passed": True}]
