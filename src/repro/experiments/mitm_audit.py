"""MITM payload audit — the paper's future-work experiment, executed.

Re-runs a cell with the interception proxy in path and asks the questions
the black-box study had to leave open:

* which ACR domains actually carry fingerprint batches vs telemetry?
* what identifier keys the tracking (the advertising ID conjecture)?
* how often was the client really capturing (LG's 10 ms claim)?
* which channels stay opaque behind certificate pinning?
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..mitm.inspect import DomainPayloadReport, PayloadInspector
from ..testbed.experiment import Country, ExperimentSpec, Phase, Scenario, Vendor
from ..testbed.runner import run_experiment
from . import cache


class MitmAuditResult:
    """Everything the payload audit learned for one cell."""

    __slots__ = ("spec", "reports", "opaque_domains", "identifiers",
                 "advertising_id", "fingerprint_domains",
                 "capture_cadence_ms")

    def __init__(self, spec: ExperimentSpec,
                 reports: Dict[str, DomainPayloadReport],
                 opaque_domains: List[str], identifiers: List[str],
                 advertising_id: str,
                 fingerprint_domains: List[str],
                 capture_cadence_ms: Optional[float]) -> None:
        self.spec = spec
        self.reports = reports
        self.opaque_domains = opaque_domains
        self.identifiers = identifiers
        self.advertising_id = advertising_id
        self.fingerprint_domains = fingerprint_domains
        self.capture_cadence_ms = capture_cadence_ms

    @property
    def advertising_id_observed(self) -> bool:
        """Does the advertising ID appear in decrypted ACR payloads?
        (§4.2's conjecture, confirmed at payload level.)"""
        return any(self.advertising_id.endswith(identifier)
                   or identifier in self.advertising_id
                   for identifier in self.identifiers)

    def __repr__(self) -> str:
        return (f"MitmAuditResult({self.spec.label}, "
                f"{len(self.reports)} domains decrypted, "
                f"{len(self.opaque_domains)} pinned)")


def run_mitm_audit(vendor: Vendor) -> MitmAuditResult:
    """Run one MITM-instrumented uk linear LIn-OIn cell at the default
    seed and inspect every payload."""
    spec = ExperimentSpec(vendor, Country.UK, Scenario.LINEAR,
                          Phase.LIN_OIN)
    result = run_experiment(spec, seed=cache.DEFAULT_SEED, mitm=True)
    proxy = result.mitm_proxy
    inspector = PayloadInspector(proxy)
    reports = inspector.inspect_all()
    cadences = [report.capture_cadence_ms
                for report in reports.values()
                if report.capture_cadence_ms is not None]
    # The device id carried by payloads is "<vendor>-<advertising uuid>".
    advertising_uuid = result.device_id.split("-", 1)[1]
    return MitmAuditResult(
        spec=spec,
        reports=reports,
        opaque_domains=proxy.opaque_domains,
        identifiers=inspector.device_identifiers(),
        advertising_id=advertising_uuid,
        fingerprint_domains=inspector.fingerprint_domains(),
        capture_cadence_ms=min(cadences) if cadences else None,
    )
