"""Unit tests for named seeded RNG streams."""

import random

import pytest

from repro.sim import RngRegistry


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RngRegistry(7).stream("boot").random()
        b = RngRegistry(7).stream("boot").random()
        assert a == b

    def test_different_seed_differs(self):
        a = RngRegistry(7).stream("boot").random()
        b = RngRegistry(8).stream("boot").random()
        assert a != b

    def test_streams_are_independent(self):
        """Draws from one stream must not perturb another."""
        reg1 = RngRegistry(7)
        reg1.stream("noise").random()  # extra draw
        value1 = reg1.stream("boot").random()

        reg2 = RngRegistry(7)
        value2 = reg2.stream("boot").random()
        assert value1 == value2

    def test_stream_is_cached(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")

    def test_fork_is_independent_of_parent(self):
        parent = RngRegistry(7)
        child = parent.fork("tv")
        assert (parent.stream("a").random()
                != child.stream("a").random())

    def test_fork_deterministic(self):
        a = RngRegistry(7).fork("tv").stream("a").random()
        b = RngRegistry(7).fork("tv").stream("a").random()
        assert a == b


class TestHelpers:
    def test_jitter_within_bounds(self):
        reg = RngRegistry(1)
        base = 1_000_000
        for __ in range(200):
            value = reg.jitter_ns("j", base, fraction=0.1)
            assert 900_000 <= value <= 1_100_000

    def test_jitter_zero_base(self):
        assert RngRegistry(1).jitter_ns("j", 0) == 0

    def test_jitter_never_negative(self):
        reg = RngRegistry(1)
        for __ in range(100):
            assert reg.jitter_ns("j", 10, fraction=0.99) >= 0

    @pytest.mark.parametrize("base,fraction", [
        (800_000, 0.06),   # the Wi-Fi hop: spread 48,000
        (1_000_000, 0.1),
        (10, 0.1),         # spread 1: half the 2-bit draws are rejected
        (10, 0.99),        # clamped at zero
        (19, 0.05),        # spread 0: no draw at all
        (0, 0.3),
    ])
    def test_jitter_is_randint_from_the_same_state(self, base, fraction):
        reg = RngRegistry(5)
        twin = random.Random()
        twin.setstate(reg.stream("j").getstate())
        spread = int(base * fraction)
        for __ in range(300):
            expected = base if spread == 0 else \
                max(0, base + twin.randint(-spread, spread))
            assert reg.jitter_ns("j", base, fraction) == expected
        assert reg.stream("j").getstate() == twin.getstate()

    def test_jitter_fraction_validated(self):
        with pytest.raises(ValueError):
            RngRegistry(1).jitter_ns("j", 100, fraction=1.5)

    def test_bounded_int_range(self):
        reg = RngRegistry(2)
        for __ in range(100):
            assert 3 <= reg.bounded_int("b", 3, 9) <= 9

    def test_bounded_int_empty_range(self):
        with pytest.raises(ValueError):
            RngRegistry(2).bounded_int("b", 5, 4)

    def test_chance_extremes(self):
        reg = RngRegistry(3)
        assert not reg.chance("c", 0.0)
        assert reg.chance("c", 1.0)

    def test_chance_validated(self):
        with pytest.raises(ValueError):
            RngRegistry(3).chance("c", 1.5)

    def test_token_bytes_length_and_determinism(self):
        a = RngRegistry(4).token_bytes("t", 64)
        b = RngRegistry(4).token_bytes("t", 64)
        assert len(a) == 64
        assert a == b
