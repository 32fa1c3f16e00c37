"""Figure 5: CDF of bytes transmitted to ACR domains, UK, opted-in phases.

Regenerates every curve and asserts the paper's reading of it: transfer
periodicity differs between vendors, Samsung speaks at higher frequency,
and login status leaves the curves essentially unchanged.
"""

from conftest import (once, opted_in_curves, print_curve_totals,
                      sent_kb)

from repro.analysis import median_step_interval_s
from repro.experiments import transmitted_curve
from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,
                           Vendor, paper_vendors)


def test_figure5_uk_cdf(benchmark, uk_opted_in_cells):
    curves = once(benchmark, opted_in_curves, Country.UK)
    print_curve_totals("Figure 5 (UK): transmitted bytes per curve", curves)

    # Vendor cadence visible in the CDF steps (fingerprint channel).
    lg_step = median_step_interval_s(
        curves[(Vendor.LG, Scenario.LINEAR, Phase.LIN_OIN)])
    samsung_fp = transmitted_curve(
        ExperimentSpec(Vendor.SAMSUNG, Country.UK, Scenario.LINEAR,
                       Phase.LIN_OIN),
        domains=["acr-eu-prd.samsungcloud.tv"])
    samsung_step = median_step_interval_s(samsung_fp)
    print(f"\ntransfer cadence: LG={lg_step:.1f}s, "
          f"Samsung fingerprint channel={samsung_step:.1f}s")
    assert 13 <= lg_step <= 17
    assert 50 <= samsung_step <= 70

    # Login status does not shift the curves materially.
    for vendor in paper_vendors():
        lin = sent_kb(curves, vendor, Scenario.LINEAR, Phase.LIN_OIN)
        lout = sent_kb(curves, vendor, Scenario.LINEAR, Phase.LOUT_OIN)
        assert abs(lin - lout) / max(lin, lout) < 0.3
