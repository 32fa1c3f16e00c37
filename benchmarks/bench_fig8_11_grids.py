"""Figures 8-11: the appendix timeline grids.

Four grids (UK/US x LIn-OIn/LOut-OIn), each with both vendor panels over
all six scenarios.  Asserts the §4.2/§4.3 reading: the grids look the
same across login phases, and the US FAST panel diverges from the UK's.
"""

from conftest import once, panels, print_panel

from repro.testbed import Country, Phase, Scenario

GRIDS = {
    "figure8": (Country.UK, Phase.LIN_OIN),
    "figure9": (Country.UK, Phase.LOUT_OIN),
    "figure10": (Country.US, Phase.LIN_OIN),
    "figure11": (Country.US, Phase.LOUT_OIN),
}


def _grids():
    return {name: panels(country, phase)
            for name, (country, phase) in GRIDS.items()}


def test_figures_8_to_11_grids(benchmark, uk_opted_in_cells,
                               us_opted_in_cells):
    grids = once(benchmark, _grids)
    assert set(grids) == {"figure8", "figure9", "figure10", "figure11"}
    for name, grid in grids.items():
        for panel in grid:
            print_panel(f"{name}: {panel.vendor.value} / "
                        f"{panel.country.value} / {panel.phase.value}",
                        panel)

    # Login-phase grids match in shape: per-scenario packet totals close.
    for uk_pair in (("figure8", "figure9"), ("figure10", "figure11")):
        lin_grid, lout_grid = grids[uk_pair[0]], grids[uk_pair[1]]
        for lin_panel, lout_panel in zip(lin_grid, lout_grid):
            for scenario in Scenario:
                a = lin_panel.timelines[scenario].total_packets
                b = lout_panel.timelines[scenario].total_packets
                assert abs(a - b) <= max(12, 0.35 * max(a, b)), \
                    (uk_pair, lin_panel.vendor, scenario, a, b)

    # Country divergence: FAST heavy in figure10 (US), light in figure8.
    uk_lg, us_lg = grids["figure8"][0], grids["figure10"][0]
    assert us_lg.timelines[Scenario.FAST].total_packets > \
        5 * uk_lg.timelines[Scenario.FAST].total_packets
