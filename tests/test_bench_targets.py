"""Every name the benchmark's traced run wraps still exists.

``perfbench/workloads.py`` lists the layer boundaries that
``perfbench/run.py --trace 1`` wraps by name.  A refactor that drops or
renames one fails every traced run, and tier-1 never runs one, so this
test looks each name up the way ``perfbench/spans.py``
``Tracer.wrapping`` does: through ``vars(owner)`` for a class (the
attribute must be the class's own) and ``getattr`` for a module.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench"))
from workloads import asset_targets, trace_targets  # noqa: E402

TARGETS = trace_targets() + asset_targets()


@pytest.mark.parametrize(
    "owner, attribute", [target[:2] for target in TARGETS],
    ids=[f"{target[0].__name__}.{target[1]}" for target in TARGETS])
def test_target_resolves_as_the_tracer_looks_it_up(owner, attribute):
    if isinstance(owner, type):
        assert attribute in vars(owner), (
            f"{owner.__name__} defines no {attribute} of its own")
        raw = vars(owner)[attribute]
    else:
        assert hasattr(owner, attribute), (
            f"{owner.__name__} has no {attribute}")
        raw = getattr(owner, attribute)
    if isinstance(raw, classmethod):
        raw = raw.__func__
    assert callable(raw)
