"""Streaming audit service: incremental household ingestion.

The batch fleet path simulates a household, feeds its whole capture
to one :class:`~repro.fleet.runner.HouseholdIngest`, and folds one
summary.  This package turns that into a long-lived service:
per-household capture *segments* arrive out of order on a
:class:`~repro.service.bus.SegmentBus` (credit-based admission per
household), and an :class:`~repro.service.auditor.IncrementalAuditor`
applies each arriving segment to its household's ingest under a
bounded-memory household window and folds every finished household
into the same :class:`~repro.fleet.aggregate.FleetAggregate` the batch
path folds.  Periodic atomic checkpoints of that aggregate and the
completed set (:mod:`repro.service.checkpoint`) make a run killable and
resumable — and let the population be grown in place — without
recomputation.

The one non-negotiable invariant, pinned by
``tests/test_service_equivalence.py``: any segment interleaving, shard
count, window, credit schedule or kill/resume point yields a fleet
report byte-identical to the batch ``fleet --jobs 1`` path.

Exposed on the CLI as ``python -m repro.cli serve``.
"""

from .auditor import IncrementalAuditor
from .bus import SegmentBus
from .checkpoint import (Checkpoint, CheckpointError, checkpoint_path,
                         load_checkpoint, write_checkpoint)
from .daemon import (AuditService, ServiceConfig, ServiceResult,
                     ServiceStopped, serve_fleet)
from .segments import CaptureSegment, segment_record, split_pcap_bytes

__all__ = [
    "AuditService",
    "CaptureSegment",
    "Checkpoint",
    "CheckpointError",
    "IncrementalAuditor",
    "SegmentBus",
    "ServiceConfig",
    "ServiceResult",
    "ServiceStopped",
    "checkpoint_path",
    "load_checkpoint",
    "segment_record",
    "serve_fleet",
    "split_pcap_bytes",
    "write_checkpoint",
]
