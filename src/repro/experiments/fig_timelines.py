"""Figures 4, 6 and 8-11: per-scenario ACR traffic timelines.

Each figure shows "10 minutes of ACR traffic in different scenarios" for
one vendor in one country during one phase, in packets-per-millisecond
format.  Figures 4/6 are the LIn-OIn views (UK/US); Figures 8-11 are the
full phase-country grids.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.pipeline import AuditPipeline
from ..analysis.timeline import Timeline, packets_per_ms
from ..sim.clock import minutes
from ..testbed.experiment import (Country, ExperimentSpec, Phase, Scenario,
                                  Vendor)
from . import cache

WINDOW_START = minutes(15)
WINDOW_MINUTES = 10

SCENARIO_LABELS = {
    Scenario.IDLE: "Idle",
    Scenario.LINEAR: "Antenna",
    Scenario.FAST: "FAST",
    Scenario.OTT: "OTT",
    Scenario.HDMI: "HDMI",
    Scenario.SCREEN_CAST: "Screen Cast",
}


class TimelineFigure:
    """One (vendor, country, phase) panel: a timeline per scenario."""

    def __init__(self, vendor: Vendor, country: Country, phase: Phase,
                 timelines: Dict[Scenario, Timeline]) -> None:
        self.vendor = vendor
        self.country = country
        self.phase = phase
        self.timelines = timelines

    def peak(self, scenario: Scenario) -> int:
        return self.timelines[scenario].peak

    def peak_reduction(self, active: Scenario,
                       restricted: Scenario) -> float:
        """How much smaller restricted-scenario spikes are (§4.1: "peaks
        get reduced by up to 12x")."""
        restricted_peak = self.peak(restricted)
        if restricted_peak == 0:
            return float("inf")
        return self.peak(active) / restricted_peak

    def __repr__(self) -> str:
        return (f"TimelineFigure({self.vendor.value}/{self.country.value}"
                f"/{self.phase.value}, {len(self.timelines)} scenarios)")


def acr_timeline(pipeline: AuditPipeline) -> Timeline:
    """The packets/ms series over the figure window for a capture's ACR
    candidate domains."""
    packets = pipeline.packets_for_all(pipeline.acr_candidate_domains())
    start = WINDOW_START
    end = start + minutes(WINDOW_MINUTES)
    return packets_per_ms(packets, start, end)


def build_figure(vendor: Vendor, country: Country,
                 phase: Phase = Phase.LIN_OIN,
                 seed: int = cache.DEFAULT_SEED) -> TimelineFigure:
    """Build one figure panel (e.g. Figure 4a = LG/UK/LIn-OIn)."""
    timelines: Dict[Scenario, Timeline] = {}
    for scenario in Scenario:
        spec = ExperimentSpec(vendor, country, scenario, phase)
        timelines[scenario] = acr_timeline(
            cache.grid(seed).pipeline(spec))
    return TimelineFigure(vendor, country, phase, timelines)

