"""First-class findings: model, ledger, export, and diff.

The three production emitters — scorecard checks, fleet/service
degradation quarantines, and service opt-out violations — all produce
the same frozen :class:`Finding` value, accumulate through the same
associative :class:`FindingsLedger`, export through the same schema-v1
JSONL (``--findings-out``) and compare through the same ``findings
diff``.  The vendor conformance suite's oracle
(``tests/conformance_oracle.py``) emits its ``CONF-*`` findings
through the same types.

This package root stays light enough for the fault/fleet layers to
import: it pulls in no analysis code.
"""

from .diff import FindingsDiff, diff_records, record_identity
from .export import (FINDINGS_SCHEMA_VERSION, ledger_to_jsonl,
                     read_findings_jsonl, write_findings_jsonl)
from .ledger import FindingsLedger
from .model import (DEGRADATION_CODE, OPTOUT_VIOLATION_CODE, SEVERITIES,
                    Evidence, Finding, severity_rank)

__all__ = [
    "DEGRADATION_CODE",
    "Evidence",
    "FINDINGS_SCHEMA_VERSION",
    "Finding",
    "FindingsDiff",
    "FindingsLedger",
    "OPTOUT_VIOLATION_CODE",
    "SEVERITIES",
    "diff_records",
    "ledger_to_jsonl",
    "read_findings_jsonl",
    "record_identity",
    "severity_rank",
    "write_findings_jsonl",
]
