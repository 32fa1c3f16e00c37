"""Figure 6: 10 minutes of ACR traffic per scenario, US, LIn-OIn.

Same panels as Figure 4 for the US; the headline divergence is FAST,
which spikes like Linear in the US.
"""

from conftest import once, panels, print_panel

from repro.testbed import Country, Phase, Scenario


def test_figure6_us_timelines(benchmark, us_opted_in_cells):
    figure = once(benchmark, panels, Country.US, Phase.LIN_OIN)
    for panel in figure:
        print_panel(f"Figure 6 ({panel.vendor.value}, US, LIn-OIn)", panel)
        # US shape: FAST joins Linear and HDMI as a heavy scenario.
        fast = panel.timelines[Scenario.FAST].total_packets
        linear = panel.timelines[Scenario.LINEAR].total_packets
        idle = panel.timelines[Scenario.IDLE].total_packets
        print(f"  FAST/Linear packets: {fast}/{linear}; Idle: {idle}")
        assert fast > 0.6 * linear
        assert fast > 2 * idle
