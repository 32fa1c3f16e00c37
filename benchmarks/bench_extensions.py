"""Bench for the future-work extension: the MITM payload audit."""

from conftest import once

from repro.experiments.mitm_audit import run_mitm_audit
from repro.reporting import render_table
from repro.testbed import Vendor, paper_vendors


def test_mitm_payload_audit(benchmark):
    audits = once(benchmark, lambda: [run_mitm_audit(v) for v in paper_vendors()])
    by_vendor = {audit.spec.vendor: audit for audit in audits}
    lg_audit = by_vendor[Vendor.LG]
    samsung_audit = by_vendor[Vendor.SAMSUNG]
    rows = []
    for audit in audits:
        rows.append([
            audit.spec.vendor.value,
            ", ".join(audit.fingerprint_domains) or "-",
            ", ".join(audit.opaque_domains) or "-",
            "yes" if audit.advertising_id_observed else "no",
            f"{audit.capture_cadence_ms:.0f} ms"
            if audit.capture_cadence_ms else "unknown",
        ])
    print("\n" + render_table(
        ["vendor", "fingerprint domains decrypted", "pinned (opaque)",
         "adid in payloads", "capture cadence"], rows,
        title="MITM payload audit (future work §6)"))
    assert lg_audit.fingerprint_domains
    assert lg_audit.capture_cadence_ms == 10.0
    assert samsung_audit.opaque_domains == \
        ["acr-eu-prd.samsungcloud.tv"]
    assert all(a.advertising_id_observed for a in audits)

