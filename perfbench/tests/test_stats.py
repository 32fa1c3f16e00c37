"""Unit tests for the benchmark's own statistics and accounting.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from spans import (Tracer, percentile, samples_beyond,  # noqa: E402
                   summarize, tail_percentile)
from tally import Tally  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- the percentile rule ------------------------------------------------------


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50.0) == 50
    assert percentile(samples, 90.0) == 90
    assert percentile([3.0], 99.9) == 3.0


@pytest.mark.parametrize("count, tail", [
    (1, None), (19, None), (99, None), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, tail):
    assert tail_percentile(count) == tail
    if tail is not None:
        assert samples_beyond(count, tail) >= 10


def test_summary_reports_tail_only_when_the_rule_allows():
    assert set(summarize([1.0] * 99)) == {"n", "p50"}
    summary = summarize([float(value) for value in range(100)])
    assert summary == {"n": 100, "p50": 49.0, "p90": 89.0}
    assert summarize([]) == {"n": 0}


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_a_nested_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now = 2.0
        with tracer.span("inner"):
            clock.now = 5.0
        clock.now = 10.0
    table = {row["layer"]: row for row in tracer.table("outer")}
    assert table["outer"]["total_ms"] == 10e3
    assert table["outer"]["self_ms"] == 7e3
    assert table["inner"]["self_ms"] == 3e3
    assert table["outer"]["self_share"] == pytest.approx(0.7)
    assert sum(row["self_share"] for row in table.values()) == \
        pytest.approx(1.0)


def test_wrapped_calls_nest_and_originals_come_back():
    clock = FakeClock()
    module = types.SimpleNamespace()

    def leaf():
        clock.now += 1.0

    def parent():
        clock.now += 2.0
        module.leaf()

    module.leaf, module.parent = leaf, parent
    tracer = Tracer(clock=clock)
    with tracer.wrapping([(module, "leaf", "layer.leaf"),
                          (module, "parent", "layer.parent")]):
        module.parent()
        module.parent()
    assert module.leaf is leaf and module.parent is parent
    assert tracer.samples("layer.parent") == [3.0, 3.0]
    table = {row["layer"]: row for row in tracer.table("layer.parent")}
    assert table["layer.parent"]["self_ms"] == 4e3
    assert table["layer.leaf"]["self_ms"] == 2e3


def test_wrapping_a_missing_attribute_fails_before_patching():
    module = types.SimpleNamespace(present=lambda: None)
    original = module.present
    with pytest.raises(AttributeError):
        with Tracer().wrapping([(module, "present", "a"),
                                (module, "absent", "b")]):
            pass
    assert module.present is original


# -- failed-operation accounting ----------------------------------------------


def test_forced_mismatch_fails_every_operation_of_the_iteration():
    tally = Tally()
    reference = "abc"

    def check(output):
        return None if output == reference else f"{output} != {reference}"

    tally.attempt(32, lambda: "abc", check)
    elapsed, output = tally.attempt(32, lambda: "abd", check)
    assert output == "abd" and elapsed >= 0.0
    assert (tally.attempted, tally.failed) == (64, 32)
    assert tally.failed_ratio == 0.5
    assert tally.failures == ["abd != abc"]


def test_an_exception_is_a_failed_operation_not_a_crash():
    tally = Tally()

    def boom():
        raise RuntimeError("worker died")

    elapsed, output = tally.attempt(34, boom, lambda output: None)
    assert output is None
    assert (tally.attempted, tally.failed) == (34, 34)
    assert tally.failures == ["RuntimeError: worker died"]
