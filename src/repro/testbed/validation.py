"""Validation scripts: did the experiment actually do what it claims?

The paper's methodology includes scripts "verifying the correct execution
of the experiments"; these are the equivalents, run over an
:class:`~repro.testbed.runner.ExperimentResult`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..net.pcap import byte_windows, parse_global_header, walk_records
from ..sim.clock import seconds
from .experiment import Phase, POWER_ON_AT_NS, Scenario
from .runner import ExperimentResult


class ValidationReport:
    """Outcome of all validation checks for one experiment."""

    __slots__ = ("label", "checks", "failures")

    def __init__(self, label: str) -> None:
        self.label = label
        self.checks: List[str] = []
        self.failures: List[str] = []

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(name)
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        state = "OK" if self.ok else f"FAILED ({len(self.failures)})"
        return f"ValidationReport({self.label}, {state})"


_EXPECTED_SOURCE = {
    Scenario.IDLE: "home", Scenario.LINEAR: "tuner",
    Scenario.FAST: "fast", Scenario.OTT: "ott",
    Scenario.HDMI: "hdmi", Scenario.SCREEN_CAST: "cast",
}


def _workflow_checks(report: ValidationReport,
                     result: ExperimentResult) -> None:
    """The scenario-independent checks shared by cells and sessions."""
    report.record("capture-nonempty", result.packet_count > 0,
                  "no packets captured")

    # The written bytes' record walk alone: counting and ordering need
    # no frame bytes, and the timestamps are one gather of the record
    # headers.  A walk that does not end at the buffer's end found a
    # cut record.
    raw = result.pcap_bytes
    swapped, __, __ = parse_global_header(raw)
    offsets, cursor, __ = walk_records(raw, swapped)
    header = byte_windows(raw, 8)[offsets].view(
        ">u4" if swapped else "<u4").astype(np.int64)
    timestamps = header[:, 0] * seconds(1) + header[:, 1] * 1_000
    report.record("pcap-roundtrip",
                  len(offsets) == result.packet_count
                  and cursor == len(raw),
                  f"pcap has {len(offsets)} of {result.packet_count} "
                  f"records, walk ends at byte {cursor} of {len(raw)}")
    report.record("timestamps-sorted",
                  bool(np.all(timestamps[1:] >= timestamps[:-1])))

    report.record(
        "powered-on-then-off",
        [kind for __, kind in result.power_log] == ["on", "off"],
        f"power log: {result.power_log}")

    # Boot burst: traffic within 10 s of power-on (§3.2: most DNS happens
    # in the first few seconds) — except when fully opted out AND idle,
    # where only gated-but-allowed services speak.
    report.record("boot-burst",
                  bool(np.any(timestamps <= POWER_ON_AT_NS + seconds(10))),
                  "no traffic within 10s of power-on")


def _optout_check(report: ValidationReport, result: ExperimentResult,
                  single_scenario: bool = True) -> None:
    if result.spec.phase not in (Phase.LIN_OOUT, Phase.LOUT_OOUT):
        return
    from ..acr.policy import CaptureDecision, capture_decision
    from ..media.sources import SourceType
    from ..tv import vendors
    profile = vendors.get(result.spec.vendor.value)
    stats = result.acr_stats
    if profile.contract.optout == vendors.OPTOUT_SILENCE:
        report.record("opted-out-client-silent",
                      stats.full_batches == 0 and stats.beacons == 0,
                      f"acr stats: {stats}")
        return
    # Downsample-on-opt-out vendors must keep uploading at a reduced
    # rate (no beacons, no bursts) — full silence would be a bug.
    passed = (stats.beacons == 0 and stats.burst_uploads == 0
              and stats.disabled_slots > 0)
    if single_scenario:
        # For a single-scenario cell we can also demand the uploads
        # actually happened: required whenever the scenario's capture
        # decision is FULL and the capture spans at least one
        # downsampled slot.  (Diary sessions mix scenarios, so only the
        # weaker shape check applies there.)
        acr = profile.acr_profiles[result.spec.country.value]
        decision = capture_decision(
            profile.name, result.spec.country.value,
            SourceType(_EXPECTED_SOURCE[result.spec.scenario]))
        slots = result.spec.duration_ns // acr.batch_interval_ns
        if decision is CaptureDecision.FULL and \
                slots > acr.optout_downsample_every:
            passed = passed and stats.downsampled_batches > 0
    report.record("opted-out-client-downsampled", passed,
                  f"acr stats: {stats}")


def _scenario_actions(result: ExperimentResult) -> List[str]:
    return [label for __, label in result.action_log
            if label.startswith("select-source")]


def validate(result: ExperimentResult) -> ValidationReport:
    """Run every check against one experiment result."""
    report = ValidationReport(result.spec.label)
    _workflow_checks(report, result)

    scenario_actions = _scenario_actions(result)
    report.record("scenario-triggered", len(scenario_actions) == 1,
                  f"actions: {result.action_log}")

    expected_source = _EXPECTED_SOURCE[result.spec.scenario]
    report.record(
        "correct-source", scenario_actions == [
            f"select-source:{expected_source}"],
        f"got {scenario_actions}")

    _optout_check(report, result)
    return report


def validate_session(result: ExperimentResult,
                     scenarios: List[Scenario]) -> ValidationReport:
    """Validate a multi-segment (diary) session capture.

    Same workflow checks as :func:`validate`, but the remote is expected
    to have triggered one source switch per segment, in diary order.
    """
    report = ValidationReport(result.spec.label)
    _workflow_checks(report, result)

    expected = [f"select-source:{_EXPECTED_SOURCE[scenario]}"
                for scenario in scenarios]
    report.record("segments-triggered",
                  _scenario_actions(result) == expected,
                  f"got {_scenario_actions(result)}, want {expected}")

    _optout_check(report, result, single_scenario=False)
    return report
