"""Campaign runner: run, validate and memoize experiment cells in memory.

One-hour captures are deterministic in (spec, seed).  The on-disk capture
cache is the grid's :class:`~repro.experiments.grid.ResultCache`; a
campaign keeps what that cache cannot hold, the full
:class:`~repro.testbed.runner.ExperimentResult` of each cell with its
ground-truth handles, for the tests that check the audit against them.
"""

from __future__ import annotations

from typing import Dict

from .experiment import ExperimentSpec
from .runner import ExperimentResult, run_experiment
from .validation import validate


def cell_key(label: str, seed: int, duration_ns: int) -> str:
    """The canonical ``label-seed-duration`` cell key.

    Every cache layer (the campaign's in-memory memo and the grid's
    content-addressed :class:`~repro.experiments.grid.ResultCache`)
    identifies a finished capture by this one string, so the layers can
    never disagree about what "the same cell" means.
    """
    return f"{label}-s{seed}-d{duration_ns}"


class CampaignRunner:
    """Runs and memoizes experiment cells."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._memory: Dict[str, ExperimentResult] = {}
        self.runs = 0
        self.cache_hits = 0

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Run (or recall) one experiment."""
        key = cell_key(spec.label, self.seed, spec.duration_ns)
        cached = self._memory.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        result = run_experiment(spec, seed=self.seed)
        self.runs += 1
        report = validate(result)
        if not report.ok:
            raise RuntimeError(
                f"experiment {spec.label} failed validation: "
                f"{report.failures}")
        self._memory[key] = result
        return result

    def __repr__(self) -> str:
        return (f"CampaignRunner(seed={self.seed}, runs={self.runs}, "
                f"hits={self.cache_hits}, cached={len(self._memory)})")
