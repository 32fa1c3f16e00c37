"""Process-wide :class:`~repro.experiments.grid.GridResults` facade.

Every table and figure draws from the same 6x4x2x2 matrix, so drivers,
tests and benchmarks share one grid-results object.  Cells are served
from memory, then from the content-addressed on-disk cache (see
:mod:`repro.experiments.grid`), and only then simulated — which is what
makes ``scorecard`` and ``report`` incremental across invocations.

:func:`grid` returns that object; :func:`pipeline_for` is shorthand for
its memoized pipeline of one cell.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.pipeline import AuditPipeline
from ..testbed.experiment import ExperimentSpec
from .grid import DEFAULT_SEED, GridResults

_grid: Optional[GridResults] = None


def grid(seed: int = DEFAULT_SEED) -> GridResults:
    """The process-wide grid results (created on first use)."""
    global _grid
    if _grid is None or _grid.seed != seed:
        _grid = GridResults(seed=seed)
    return _grid


def pipeline_for(spec: ExperimentSpec) -> AuditPipeline:
    """The decoded audit pipeline for one cell at the default seed,
    memoized."""
    return grid().pipeline(spec)


def reset() -> None:
    """Drop all cached runs (tests use this for isolation)."""
    global _grid
    _grid = None
