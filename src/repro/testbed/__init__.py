"""Experiment orchestration: the capture access point, experiment
vocabulary, the single-experiment runner, validation scripts, and
campaign-level caching."""

from .access_point import AccessPoint
from .assets import (fast_channel, fresh_backend, linear_channel,
                     media_library, ott_playlist, reference_library,
                     ui_item)
from .campaign import CampaignRunner
from .experiment import (Country, DEFAULT_DURATION_NS, ExperimentSpec,
                         Phase, POWER_ON_AT_NS, Scenario,
                         SCENARIO_START_NS, Vendor, full_matrix,
                         paper_vendors, phase_pair, scenario_sweep,
                         vendor_profile_of)
from .runner import (ExperimentResult, build_source, run_experiment,
                     run_session)
from .validation import ValidationReport, validate, validate_session

__all__ = [
    "AccessPoint",
    "CampaignRunner",
    "Country",
    "DEFAULT_DURATION_NS",
    "ExperimentResult",
    "ExperimentSpec",
    "POWER_ON_AT_NS",
    "Phase",
    "SCENARIO_START_NS",
    "Scenario",
    "ValidationReport",
    "Vendor",
    "build_source",
    "fast_channel",
    "fresh_backend",
    "full_matrix",
    "linear_channel",
    "media_library",
    "ott_playlist",
    "paper_vendors",
    "phase_pair",
    "vendor_profile_of",
    "reference_library",
    "run_experiment",
    "run_session",
    "scenario_sweep",
    "ui_item",
    "validate",
    "validate_session",
]
