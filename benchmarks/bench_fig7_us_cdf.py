"""Figure 7: CDF of bytes transmitted to ACR domains, US, opted-in phases."""

from conftest import (once, opted_in_curves, print_curve_totals,
                      sent_kb)

from repro.testbed import Country, Phase, Scenario, paper_vendors


def test_figure7_us_cdf(benchmark, us_opted_in_cells):
    curves = once(benchmark, opted_in_curves, Country.US)
    print_curve_totals("Figure 7 (US): transmitted bytes per curve", curves)

    # US shape: FAST transmissions rival Linear for both vendors.
    for vendor in paper_vendors():
        fast = sent_kb(curves, vendor, Scenario.FAST, Phase.LIN_OIN)
        linear = sent_kb(curves, vendor, Scenario.LINEAR, Phase.LIN_OIN)
        assert fast > 0.6 * linear
    # Login status immaterial in the US too.
    for vendor in paper_vendors():
        lin = sent_kb(curves, vendor, Scenario.LINEAR, Phase.LIN_OIN)
        lout = sent_kb(curves, vendor, Scenario.LINEAR, Phase.LOUT_OIN)
        assert abs(lin - lout) / max(lin, lout) < 0.3
