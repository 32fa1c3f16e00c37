"""Figures 5 and 7: CDFs of bytes transmitted to ACR domains.

"the CDF of data transferred to ACR domains (in bytes) in each scenario
during the LIn-OIn and LOut-OIn phases" — UK in Figure 5, US in Figure 7.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..analysis.cdf import (CumulativeCurve, cumulative_bytes,
                            median_step_interval_s)
from ..sim.clock import minutes
from ..testbed.experiment import (Country, ExperimentSpec, Phase, Scenario,
                                  Vendor, paper_vendors)
from . import cache

CDF_WINDOW_START = minutes(5)
CDF_WINDOW_MINUTES = 50

CurveKey = Tuple[Vendor, Scenario, Phase]


class CdfFigure:
    """One country's CDF panel across vendors/scenarios/phases."""

    def __init__(self, country: Country,
                 curves: Dict[CurveKey, CumulativeCurve]) -> None:
        self.country = country
        self.curves = curves

    def curve(self, vendor: Vendor, scenario: Scenario,
              phase: Phase) -> CumulativeCurve:
        return self.curves[(vendor, scenario, phase)]

    def total_kb(self, vendor: Vendor, scenario: Scenario,
                 phase: Phase) -> float:
        return self.curve(vendor, scenario, phase).total_bytes / 1000.0

    def transfer_period_s(self, vendor: Vendor, scenario: Scenario,
                          phase: Phase) -> float:
        """The step cadence visible in the CDF (LG 15 s vs Samsung 60 s)."""
        return median_step_interval_s(self.curve(vendor, scenario, phase))

    def __repr__(self) -> str:
        return f"CdfFigure({self.country.value}, {len(self.curves)} curves)"


def transmitted_curve(spec: ExperimentSpec,
                      seed: int = cache.DEFAULT_SEED,
                      domains=None) -> CumulativeCurve:
    """Cumulative bytes the TV *sent* to ACR domains in one capture.

    ``domains`` restricts the curve (e.g. to the fingerprint endpoint so
    the vendor's batch cadence is visible); by default every "acr"
    candidate contributes, as in the paper's aggregate CDFs.
    """
    pipeline = cache.grid(seed).pipeline(spec)
    targets = domains if domains is not None \
        else pipeline.acr_candidate_domains()
    packets = pipeline.packets_for_all(targets)
    start = CDF_WINDOW_START
    end = start + minutes(CDF_WINDOW_MINUTES)
    return cumulative_bytes(packets, start, end,
                            sent_only_from=pipeline.tv_ip)


def build_cdf_figure(country: Country,
                     seed: int = cache.DEFAULT_SEED) -> CdfFigure:
    """Figure 5 (UK) or Figure 7 (US): the paper vendors, all scenarios,
    both opted-in phases."""
    curves: Dict[CurveKey, CumulativeCurve] = {}
    for vendor in paper_vendors():
        for scenario in Scenario:
            for phase in (Phase.LIN_OIN, Phase.LOUT_OIN):
                spec = ExperimentSpec(vendor, country, scenario, phase)
                curves[(vendor, scenario, phase)] = transmitted_curve(
                    spec, seed)
    return CdfFigure(country, curves)


def figure5(seed: int = cache.DEFAULT_SEED) -> CdfFigure:
    return build_cdf_figure(Country.UK, seed)


def figure7(seed: int = cache.DEFAULT_SEED) -> CdfFigure:
    return build_cdf_figure(Country.US, seed)
