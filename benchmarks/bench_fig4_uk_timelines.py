"""Figure 4: 10 minutes of ACR traffic per scenario, UK, LIn-OIn.

Regenerates both panels (a: LG, b: Samsung) as packets-per-millisecond
timelines and asserts the paper's shape: Linear and HDMI dominate, peaks
in restricted scenarios are several-fold smaller.
"""

from conftest import once, panels, print_panel

from repro.testbed import Country, Phase, Scenario


def test_figure4_uk_timelines(benchmark, uk_opted_in_cells):
    figure = once(benchmark, panels, Country.UK, Phase.LIN_OIN)
    for panel in figure:
        print_panel(f"Figure 4 ({panel.vendor.value}, UK, LIn-OIn)", panel)
        # Shape: Linear and HDMI spike hardest.
        active_peak = min(panel.peak(Scenario.LINEAR),
                          panel.peak(Scenario.HDMI))
        restricted_peak = max(
            panel.peak(s) for s in (Scenario.IDLE, Scenario.OTT))
        assert active_peak > restricted_peak
    lg, samsung = figure
    ratio = lg.peak_reduction(Scenario.LINEAR, Scenario.OTT)
    print(f"\nLG peak reduction Linear vs OTT: {ratio:.1f}x "
          f"(paper: up to 12x)")
    assert ratio >= 3.0
