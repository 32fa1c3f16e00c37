"""Tests for table rendering and the dashboard's ASCII primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.reporting import render_markdown, render_table
from repro.reporting.ascii_plot import BARS, meter, sparkline

WIDE = "a-wide-header"


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

    @pytest.mark.parametrize("cell, numeric", [
        ("4759.7", True), ("12x", True), ("-0.5", True), ("-", False),
        ("n/a", False), ("LIn-OIn", False)])
    def test_numeric_cells_right_aligned(self, cell, numeric):
        row = render_table([WIDE], [[cell]]).splitlines()[2]
        padded = cell.rjust(len(WIDE)) if numeric else cell.ljust(len(WIDE))
        assert row == f"| {padded} |"

    def test_numeric_header_stays_left_aligned(self):
        header = render_table(["1", "b"], [["12345", "x"]]).splitlines()[0]
        assert header == "| 1     | b |"

    def test_cells_are_stringified(self):
        out = render_table(["n", "kb"], [[3, 4.5]])
        assert out.splitlines()[2] == "| 3 | 4.5 |"

    def test_no_rows_renders_header_and_separator(self):
        assert render_table(["ab", "c"], []).splitlines() == [
            "| ab | c |", "|----|---|"]

    def test_markdown_stringifies_cells(self):
        assert render_markdown(["n"], [[7]]).splitlines()[2] == "| 7 |"


class TestAsciiPrimitives:
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

    def test_meter_zero_width_is_empty(self):
        assert meter(0.5, 0) == ""

    def test_meter_negative_fraction_clamped(self):
        assert meter(-1.0, 4) == "[----]"

    @given(st.floats(allow_nan=False, min_value=-10, max_value=10),
           st.integers(min_value=1, max_value=200))
    def test_meter_spans_exactly_its_width(self, fraction, width):
        bar = meter(fraction, width)
        assert len(bar) == width + 2
        assert set(bar[1:-1]) <= {"#", "-"}

    def test_sparkline_peak_is_top_of_ramp(self):
        line = sparkline([1, 2, 4])
        assert line[-1] == BARS[-1]
        assert " " not in line

    def test_sparkline_negative_values_are_blank(self):
        assert sparkline([-1, -2]) == "  "

    def test_sparkline_empty_pads_to_width(self):
        assert sparkline([], width=5) == " " * 5

    def test_sparkline_short_series_pads_to_width(self):
        assert sparkline([1, 2], width=5) == sparkline([1, 2]) + " " * 3

    @pytest.mark.parametrize("n_values,width", [(403, 40), (23, 40)])
    def test_each_value_alone_lands_in_its_array_split_column(
            self, n_values, width):
        columns = [column for column, chunk in enumerate(
            np.array_split(np.arange(n_values), width)) for __ in chunk]
        for index in range(n_values):
            values = np.zeros(n_values)
            values[index] = 1
            column = columns[index]
            assert sparkline(values, width) == \
                " " * column + BARS[-1] + " " * (width - column - 1)
