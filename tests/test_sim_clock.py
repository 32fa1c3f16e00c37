"""Unit tests for the virtual clock and time conversions."""

import pytest

from repro.sim import clock as clock_mod
from repro.sim.clock import (NS_PER_MS, Clock, hours, microseconds,
                             milliseconds, minutes, seconds, to_seconds)


class TestConversions:
    def test_seconds_roundtrip(self):
        assert to_seconds(seconds(12.5)) == pytest.approx(12.5)

    def test_milliseconds_roundtrip(self):
        assert milliseconds(3.25) / NS_PER_MS == pytest.approx(3.25)

    def test_units_are_consistent(self):
        assert seconds(1) == milliseconds(1000) == microseconds(10 ** 6)
        assert minutes(1) == seconds(60)
        assert hours(1) == minutes(60)

    def test_one_hour_in_ns(self):
        assert hours(1) == 3_600_000_000_000

    def test_fractional_values_round(self):
        assert milliseconds(0.0005) == 500
        assert seconds(0.5) == 500_000_000


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_custom_start(self):
        assert Clock(start=100).now == 100

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Clock(start=-1)

    def test_advance_forward(self):
        c = Clock()
        c.advance_to(seconds(5))
        assert c.now == seconds(5)
        assert c.now_seconds == pytest.approx(5.0)

    def test_advance_to_same_time_allowed(self):
        c = Clock(start=10)
        c.advance_to(10)
        assert c.now == 10

    def test_backwards_rejected(self):
        c = Clock(start=100)
        with pytest.raises(ValueError):
            c.advance_to(99)

    def test_format_renders_hms(self):
        c = Clock()
        c.advance_to(hours(1) + minutes(2) + seconds(3) + milliseconds(45))
        assert c.format() == "01:02:03.045"

    def test_repr_contains_time(self):
        assert "00:00:00.000" in repr(Clock())

    def test_module_constants(self):
        assert clock_mod.NS_PER_SECOND == 10 ** 9
        assert clock_mod.NS_PER_HOUR == 3600 * 10 ** 9
