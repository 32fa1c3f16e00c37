"""Deterministic fault injection and the recovery machinery it tests.

``repro.faults`` turns "what if a worker dies / a segment vanishes / a
checkpoint tears" from a hope into a pinned property: a
:class:`FaultPlan` derives every injection decision from
``(seed, site, stable coordinates)`` through SHA-256, so a chaos run is
exactly reproducible, invariant under ``--jobs``, and — because
injection is bounded per retry site — guaranteed to recover.  See
:mod:`repro.faults.plan` for the decision oracle and spec grammar and
:mod:`repro.faults.inject` for the tamper transforms and the salvage
(quarantine-and-continue) decoder.
"""

from .inject import (
    produce_with_retries,
    salvage_pcap_bytes,
    tamper_pcap_bytes,
)
from .plan import (
    FAULT_ATTEMPT_CAP,
    FAULT_SITES,
    NULL_PLAN,
    FaultPlan,
    FaultSpecError,
)

__all__ = [
    "FAULT_ATTEMPT_CAP",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpecError",
    "NULL_PLAN",
    "produce_with_retries",
    "salvage_pcap_bytes",
    "tamper_pcap_bytes",
]
