"""Deterministic, seed-derived fault plans.

A :class:`FaultPlan` is the single source of truth for *whether* a fault
fires at a given site.  Every decision is a pure function of
``(fault seed, site, coordinates)`` — the coordinates are stable
identities (household index, segment seq, record index, attempt
number), never execution order, wall clock, or process identity — so

* the same plan injects the *same* faults on every run (reproducible
  chaos: a failure found under ``--faults ... --fault-seed 3`` replays
  exactly);
* injection totals are invariant under ``--jobs``: a decision made in a
  pool worker and the same decision made in-process agree bit for bit
  (``tests/test_obs.py`` pins this the same way it pins metric totals).

Decisions hash through SHA-256, mirroring how
:mod:`repro.fleet.population` derives household attributes: the first 8
digest bytes, scaled to [0, 1), compare against the site's rate.

The fault-spec grammar (the CLI's ``--faults`` argument) is a
comma-separated list of ``site:rate`` entries::

    segment.drop:0.2,worker.crash:0.1,checkpoint.torn:0.5

Rates are floats in [0, 1].  A bare ``site`` (no rate) means ``1.0`` —
"always", which for retried sites still converges because injection is
*bounded*: sites consulted through :meth:`FaultPlan.fires_bounded` stop
firing after :data:`FAULT_ATTEMPT_CAP` attempts, so the final retry of
any bounded-retry loop is guaranteed clean and recovery is total.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Tuple

#: Attempts after which a bounded site stops injecting.  Every
#: retry-with-backoff loop in the stack retries at least this many
#: times, which is what makes recovery from injected crash/drop/
#: starvation faults *guaranteed* rather than probabilistic.
FAULT_ATTEMPT_CAP = 4

#: Every injection site the engine knows, with the layer it lives in.
#: Parsing refuses unknown sites so a typoed plan fails loudly instead
#: of silently injecting nothing.
FAULT_SITES: Dict[str, str] = {
    # decode layer (lossy: quarantined rows become degradation records)
    "pcap.truncate": "net: truncate a capture segment mid-record",
    "pcap.corrupt": "net: corrupt one record's frame header",
    # segment bus / arrival schedule (lossless: bus + retries recover)
    "segment.drop": "service: drop a segment offer (producer resends)",
    "segment.dup": "service: deliver a segment twice (bus dedups)",
    "segment.reorder": "service: scramble a segment's arrival time",
    "segment.starve": "service: refuse an admissible offer (no credit)",
    # capture production (lossless: bounded retry with backoff)
    "worker.crash": "fleet/service: capture production dies mid-task",
    "worker.hang": "fleet/service: capture production hangs (timeout)",
    # checkpoint durability (lossless: fallback to last valid snapshot)
    "checkpoint.torn": "service: checkpoint write torn mid-payload",
    "checkpoint.corrupt": "service: checkpoint bytes corrupted on disk",
}

_SCALE = float(1 << 64)


class FaultSpecError(ValueError):
    """A ``--faults`` spec string that doesn't parse or names an
    unknown site."""


class FaultPlan:
    """Per-site injection rates plus the deterministic decision oracle.

    Falsy when every rate is zero (the :data:`NULL_PLAN` case), so hot
    paths can guard injection behind a single ``if plan:`` check and a
    fault-free run never hashes anything.
    """

    __slots__ = ("rates", "seed")

    def __init__(self, rates: Mapping[str, float] = (),
                 seed: int = 0) -> None:
        validated: Dict[str, float] = {}
        for site, rate in dict(rates).items():
            if site not in FAULT_SITES:
                raise FaultSpecError(
                    f"unknown fault site {site!r} (choose from "
                    f"{', '.join(sorted(FAULT_SITES))})")
            rate = float(rate)
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(
                    f"fault rate for {site} must be in [0, 1]: {rate}")
            if rate:
                validated[site] = rate
        self.rates = validated
        self.seed = int(seed)

    # -- construction -----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse the ``site:rate[,site:rate...]`` grammar."""
        rates: Dict[str, float] = {}
        for entry in (spec or "").split(","):
            entry = entry.strip()
            if not entry:
                continue
            site, colon, rate_text = entry.partition(":")
            site = site.strip()
            if colon:
                try:
                    rate = float(rate_text)
                except ValueError:
                    raise FaultSpecError(
                        f"bad fault rate in {entry!r}") from None
            else:
                rate = 1.0
            if site in rates:
                raise FaultSpecError(f"duplicate fault site {site!r}")
            rates[site] = rate
        return cls(rates, seed=seed)

    def as_tuple(self) -> Tuple:
        """Primitive form for process-pool payloads."""
        return (tuple(sorted(self.rates.items())), self.seed)

    @classmethod
    def from_tuple(cls, values: Tuple) -> "FaultPlan":
        rates, seed = values
        return cls(dict(rates), seed=seed)

    # -- the decision oracle ----------------------------------------------------

    def draw(self, site: str, *coords) -> float:
        """A deterministic uniform draw in [0, 1) for ``(site, coords)``."""
        message = ":".join(
            [str(self.seed), site] + [str(value) for value in coords])
        digest = hashlib.sha256(message.encode()).digest()
        return int.from_bytes(digest[:8], "big") / _SCALE

    def fires(self, site: str, *coords) -> bool:
        """Does the fault at ``site`` fire for these coordinates?"""
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self.draw(site, *coords) < rate

    def fires_bounded(self, site: str, attempt: int, *coords) -> bool:
        """Like :meth:`fires`, but never past :data:`FAULT_ATTEMPT_CAP`
        attempts — the convergence guarantee for retried sites."""
        return attempt < FAULT_ATTEMPT_CAP \
            and self.fires(site, *coords, attempt)

    def rate(self, site: str) -> float:
        return self.rates.get(site, 0.0)

    # -- misc -------------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.rates)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FaultPlan)
                and self.rates == other.rates
                and self.seed == other.seed)

    def __repr__(self) -> str:
        inner = ",".join(f"{site}:{rate:g}"
                         for site, rate in sorted(self.rates.items()))
        return f"FaultPlan({inner or 'off'}, seed={self.seed})"


#: The shared empty plan: falsy, never fires, allocation-free to check.
NULL_PLAN = FaultPlan()
