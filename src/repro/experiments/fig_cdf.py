"""Figures 5 and 7: CDFs of bytes transmitted to ACR domains.

"the CDF of data transferred to ACR domains (in bytes) in each scenario
during the LIn-OIn and LOut-OIn phases" — UK in Figure 5, US in Figure 7.
"""

from __future__ import annotations

from ..analysis.cdf import CumulativeCurve, cumulative_bytes
from ..sim.clock import minutes
from ..testbed.experiment import ExperimentSpec
from . import cache

CDF_WINDOW_START = minutes(5)
CDF_WINDOW_MINUTES = 50


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

