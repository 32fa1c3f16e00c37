"""Population-scale fleet simulation and auditing.

The paper audits one TV at a time; this layer audits *populations*:
sample N households from configurable vendor/country/phase/diary mixes
(:mod:`population`), play each household's viewing diary as one
multi-scenario capture (:mod:`diary`), execute households sharded over a
process pool with content-addressed capture caching (:mod:`runner`), and
fold every audit into constant-memory streaming aggregates
(:mod:`aggregate`) rendered by :mod:`report`.

Exposed on the CLI as ``python -m repro.cli fleet``.
"""

from .aggregate import FleetAggregate, summarize_household
from .diary import DIARIES, Diary, Segment, diary_named
from .population import (DEFAULT_MIX, HouseholdSpec, MixError,
                         PopulationSpec, parse_mix)
from .report import render_population_report
from .runner import FleetResult, FleetRunError, FleetRunner, SHARD_SIZE

__all__ = [
    "DEFAULT_MIX",
    "DIARIES",
    "Diary",
    "FleetAggregate",
    "FleetResult",
    "FleetRunError",
    "FleetRunner",
    "HouseholdSpec",
    "MixError",
    "PopulationSpec",
    "SHARD_SIZE",
    "Segment",
    "diary_named",
    "parse_mix",
    "render_population_report",
    "summarize_household",
]
