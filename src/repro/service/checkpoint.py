"""Durable checkpoint/resume for the streaming audit service.

A checkpoint is one JSON document: the folded
:class:`~repro.fleet.aggregate.FleetAggregate`, the set of completed
household indices, and the population identity that guards against
resuming the wrong fleet.  Nothing in flight is saved: a resumed run
replays unfinished households from segment 0, since captures are
recalled from the result cache, not recomputed.  (Documents from
before this layout also carry ``cursors``, ``households`` and
``segments_folded``; the loader ignores them.)

Durability is layered:

* every write goes through :func:`repro.util.atomic_write_text`, so a
  kill mid-write leaves the previous file, never a torn one;
* the document carries a SHA-256 ``digest`` of its own canonical JSON,
  so silent on-disk corruption is *detected*, not resumed from;
* each snapshot is written twice — a rotated
  ``service-checkpoint-<seq>.json`` first, then the canonical
  ``service-checkpoint.json`` — and the newest
  :data:`CHECKPOINT_KEEP` rotated files are retained, so
  :func:`load_checkpoint` can fall back past a damaged newest snapshot
  to the newest *valid* one (counted as ``checkpoint.fallback``).

Fault injection (``checkpoint.torn`` / ``checkpoint.corrupt``) damages
these same two writes deterministically by write sequence: torn tears
the canonical write unless the rotated twin of the same snapshot was
corrupted (so one copy always survives),
corrupt smashes the rotated file's digest (bounded per
:data:`~repro.faults.plan.FAULT_ATTEMPT_CAP`-sized sequence block, so
every block contains a durable rotated snapshot — which is why
:data:`CHECKPOINT_KEEP` is the block size and recovery stays total).

Growth in place is deliberate: resuming with a *larger*
``--households`` is allowed (same seed + mixes), so a fleet can be
extended without re-folding the part already audited.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Iterable, List, Mapping, Optional, Tuple

from ..faults import FAULT_ATTEMPT_CAP, NULL_PLAN, FaultPlan
from ..fleet.aggregate import FleetAggregate
from ..obs.metrics import get_registry
from ..util import atomic_write_text

#: Bump on any incompatible change to the checkpoint document.
CHECKPOINT_VERSION = 1

#: File name inside ``--checkpoint-dir``.
CHECKPOINT_NAME = "service-checkpoint.json"

#: Rotated snapshots retained beside the canonical file.  One more
#: than the fault attempt cap: any window of this many consecutive
#: write sequences contains a sequence whose bounded ``checkpoint.
#: corrupt`` draw cannot fire, i.e. at least one durable snapshot.
CHECKPOINT_KEEP = FAULT_ATTEMPT_CAP + 1

_ROTATED_RE = re.compile(r"^service-checkpoint-(\d{8})\.json$")


class CheckpointError(ValueError):
    """A checkpoint is missing, malformed, or for a different fleet."""


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_NAME)


def rotated_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"service-checkpoint-{seq:08d}.json")


def rotated_sequences(directory: str) -> List[int]:
    """Write sequences of the rotated snapshots on disk, ascending."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = [int(match.group(1)) for name in names
             if (match := _ROTATED_RE.match(name))]
    return sorted(found)


class Checkpoint:
    """A loaded snapshot."""

    __slots__ = ("aggregate", "completed", "population_key")

    def __init__(self, aggregate: FleetAggregate, completed: Iterable[int],
                 population_key: str) -> None:
        self.aggregate = aggregate
        self.completed = set(completed)
        self.population_key = population_key

    def __repr__(self) -> str:
        return f"Checkpoint({len(self.completed)} households folded)"


def population_key(seed: int, mixes: Mapping[str, Mapping[str, float]]
                   ) -> str:
    """Identity of a fleet for resume guarding: seed + mixes, not N.

    Household ``i`` is a pure function of ``(seed, mixes, i)``, so a
    checkpoint is valid for any population size over the same draws —
    that is exactly what lets ``--resume`` grow a fleet in place.
    """
    canonical = {axis: {value: float(weight)
                        for value, weight in sorted(weights.items())}
                 for axis, weights in sorted(mixes.items())}
    return json.dumps({"seed": seed, "mixes": canonical},
                      sort_keys=True, separators=(",", ":"))


def _document_digest(document: Mapping) -> str:
    """SHA-256 of the document's canonical JSON, ``digest`` excluded."""
    undigested = {key: value for key, value in document.items()
                  if key != "digest"}
    canonical = json.dumps(undigested, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_checkpoint(directory: str, aggregate: FleetAggregate,
                     completed: Iterable[int], key: str,
                     faults: FaultPlan = NULL_PLAN) -> str:
    """Durably persist a snapshot; returns the canonical file path.

    The rotated copy lands first, then the canonical file, then
    rotation pruning — so at every instant the newest valid snapshot
    on disk reflects either this fold or the previous one.
    """
    os.makedirs(directory, exist_ok=True)
    on_disk = rotated_sequences(directory)
    seq = on_disk[-1] + 1 if on_disk else 0
    document = {
        "version": CHECKPOINT_VERSION,
        "seq": seq,
        "population": key,
        "completed": sorted(completed),
        "aggregate": aggregate.to_dict(),
    }
    document["digest"] = _document_digest(document)
    text = json.dumps(document, sort_keys=True, indent=1) + "\n"
    registry = get_registry()

    rotated_text = text
    corrupt = faults.fires_bounded("checkpoint.corrupt",
                                   seq % CHECKPOINT_KEEP,
                                   seq // CHECKPOINT_KEEP)
    if corrupt:
        # Parseable but wrong: the digest check must catch this one.
        rotated_text = text.replace(document["digest"], "0" * 64)
        registry.inc("faults.injected.checkpoint.corrupt")
    atomic_write_text(rotated_path(directory, seq), rotated_text)

    canonical_text = text
    if not corrupt and faults.fires("checkpoint.torn", seq):
        # Torn mid-payload: not even JSON.  Only when the rotated twin
        # written above survives: one durable copy of every snapshot is
        # what keeps recovery total at any injection rate, even when
        # the run stops after its first checkpoint.
        canonical_text = text[:len(text) // 2]
        registry.inc("faults.injected.checkpoint.torn")
    path = checkpoint_path(directory)
    atomic_write_text(path, canonical_text)

    for stale in on_disk[:-(CHECKPOINT_KEEP - 1)] \
            if len(on_disk) >= CHECKPOINT_KEEP else []:
        try:
            os.remove(rotated_path(directory, stale))
        except OSError:
            pass
    return path


def _checkpoint_from(document: Mapping) -> Checkpoint:
    """The snapshot a document describes.  A missing or mistyped field
    raises ``KeyError``, ``TypeError``, ``ValueError``,
    ``AttributeError`` or ``OverflowError``."""
    population = document["population"]
    completed = document["completed"]
    aggregate = document["aggregate"]
    if not (isinstance(population, str) and isinstance(completed, list)
            and isinstance(aggregate, dict)):
        raise TypeError("mistyped population, completed or aggregate "
                        "field")
    return Checkpoint(
        aggregate=FleetAggregate.from_dict(aggregate),
        completed=[int(index) for index in completed],
        population_key=population,
    )


def _read_snapshot(path: str) -> Tuple[Optional[Checkpoint], Optional[str]]:
    """``(checkpoint, None)`` when the file holds a verified, well-formed
    snapshot, else ``(None, reason)``."""
    try:
        with open(path, "rb") as fileobj:
            raw = fileobj.read()
    except FileNotFoundError:
        return None, "missing"
    except OSError as exc:
        return None, f"unreadable: {exc}"
    try:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors.
        document = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return None, f"unreadable: {exc}"
    if not isinstance(document, dict):
        return None, f"not a JSON object ({type(document).__name__})"
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        return None, f"version {version!r} != {CHECKPOINT_VERSION}"
    digest = document.get("digest")
    if digest is not None and digest != _document_digest(document):
        return None, "digest mismatch (corrupt payload)"
    try:
        return _checkpoint_from(document), None
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        return None, f"malformed: {type(exc).__name__}: {exc}"


def load_checkpoint(directory: str,
                    expect_key: Optional[str] = None) -> Checkpoint:
    """Load the newest *valid* snapshot under ``directory``.

    Tries the canonical file first, then rotated snapshots newest
    first, skipping anything torn, corrupt, malformed (not UTF-8 JSON,
    not an object, a field missing or of the wrong type) or
    version-mismatched (each skip is counted; a successful
    skip-then-load increments ``faults.recovered.checkpoint.fallback``)
    and raising :class:`CheckpointError` when nothing valid is left.  A
    snapshot that verifies but belongs to a different fleet is a hard
    refusal, not a fallback — resuming the wrong population must never
    "recover".
    """
    candidates = [checkpoint_path(directory)]
    candidates += [rotated_path(directory, seq)
                   for seq in reversed(rotated_sequences(directory))]
    registry = get_registry()
    failures: List[str] = []
    for path in candidates:
        checkpoint, reason = _read_snapshot(path)
        if checkpoint is None:
            if reason != "missing":
                failures.append(f"{os.path.basename(path)}: {reason}")
            continue
        if expect_key is not None and checkpoint.population_key != expect_key:
            raise CheckpointError(
                "checkpoint belongs to a different fleet (seed/mix "
                "mismatch); refusing to merge incompatible populations")
        if failures:
            registry.inc("checkpoint.fallback", len(failures))
            registry.inc("faults.recovered.checkpoint.fallback")
        return checkpoint
    if failures:
        raise CheckpointError(
            f"no valid checkpoint under {directory}: "
            + "; ".join(failures))
    raise CheckpointError(f"no checkpoint at {checkpoint_path(directory)}")
