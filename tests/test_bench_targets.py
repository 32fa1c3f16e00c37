"""Every name the benchmark's traced run wraps still exists, and the
fleet workloads' traced walks still reach every layer they book.

``perfbench/workloads.py`` lists the layer boundaries that
``perfbench/run.py --trace 1`` wraps by name.  A refactor that drops or
renames one fails every traced run, and tier-1 never runs one, so this
test looks each name up the way ``perfbench/spans.py``
``Tracer.wrapping`` does: through ``vars(owner)`` for a class (the
attribute must be the class's own) and ``getattr`` for a module.  A
name can resolve yet no longer be the one the program calls (a module
that calls its own binding of a function, say), so the fleet workloads
also walk a small population traced, as ``--trace 1`` does.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench"))
from spans import Tracer  # noqa: E402
from workloads import (FleetWorkload, asset_targets,  # noqa: E402
                       trace_targets)
from repro.fleet import PopulationSpec  # noqa: E402

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


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fleet-cold", "fleet-warm",
                                  "serve-warm"])
def test_traced_walk_reaches_every_layer(tmp_path, name):
    workload = FleetWorkload(name, seed=0, jobs=1, work=str(tmp_path))
    workload.population = PopulationSpec(3, seed=19)
    workload.prepare()
    workload.fresh()
    tracer = Tracer()
    with tracer.wrapping(trace_targets()), tracer.span("body"):
        output = workload.walk(tracer)
    assert workload.check(output) is None
    missing = [layer for layer in workload.layers
               if not tracer.samples(layer)]
    assert not missing, f"traced walk produced no {missing} span"
