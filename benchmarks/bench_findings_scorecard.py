"""The full findings scorecard: every paper conclusion (S1-S12) verified
against the simulated testbed in one run."""

from conftest import once

from repro.experiments import run_all_checks
from repro.reporting import render_table


def test_findings_scorecard(benchmark, uk_opted_in_cells,
                            us_opted_in_cells, optout_cells):
    checks = once(benchmark, run_all_checks)
    rows = [[check.code,
             "PASS" if check.passed else "FAIL",
             check.title,
             check.evidence_text()[:90]]
            for check in checks]
    print("\n" + render_table(
        ["id", "result", "paper finding", "evidence"], rows,
        title="Reproduction scorecard (paper findings S1-S12)"))
    failed = [check.code for check in checks if not check.passed]
    assert not failed, f"failed findings: {failed}"
