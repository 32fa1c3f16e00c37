"""Process-wide :class:`~repro.experiments.grid.GridResults` facade.

Every table and figure draws from the same 6x4x2x2 matrix, so drivers,
tests and benchmarks share one grid-results object.  Cells are served
from memory, then from the content-addressed on-disk cache (see
:mod:`repro.experiments.grid`), and only then simulated — which is what
makes ``scorecard`` and ``report`` incremental across invocations.

The legacy helpers (:func:`result_for`, :func:`pipeline_for`,
:func:`campaign`) remain as thin wrappers so existing callers keep
working; new code should go through :func:`grid`.  :func:`result_for`
serves only the tests' ground-truth fixtures: every audit reads its
cells through pipelines.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.pipeline import AuditPipeline
from ..testbed.campaign import CampaignRunner
from ..testbed.experiment import ExperimentSpec
from ..testbed.runner import ExperimentResult
from .grid import DEFAULT_SEED, GridResults

_grid: Optional[GridResults] = None


def grid(seed: int = DEFAULT_SEED) -> GridResults:
    """The process-wide grid results (created on first use)."""
    global _grid
    if _grid is None or _grid.seed != seed:
        _grid = GridResults(seed=seed)
    return _grid


def campaign(seed: int = DEFAULT_SEED) -> CampaignRunner:
    """The grid's in-process campaign runner (full-result memo)."""
    return grid(seed).campaign


def result_for(spec: ExperimentSpec,
               seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Run (or recall) one cell with its ground-truth handles."""
    return grid(seed).result(spec)


def pipeline_for(spec: ExperimentSpec,
                 seed: int = DEFAULT_SEED) -> AuditPipeline:
    """The decoded audit pipeline for one cell, memoized."""
    return grid(seed).pipeline(spec)


def reset() -> None:
    """Drop all cached runs (tests use this for isolation)."""
    global _grid
    _grid = None
