"""Live queryable fleet state, built incrementally.

``LiveState`` is the service's answer surface: the same integer-exact
:class:`~repro.fleet.aggregate.FleetAggregate` the batch path folds, but
grown household by household while the stream is still running, plus the
bookkeeping (which household indices are already folded) that makes
checkpoint/resume and in-place population growth idempotent.

Because every accumulator is an integer and ``merge``/``fold`` are
associative and commutative, the state's value — and therefore the
rendered report — is independent of arrival order, shard count, and
resume point.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ..findings import Finding, FindingsLedger, OPTOUT_VIOLATION_CODE
from ..fleet.aggregate import FleetAggregate


class LiveState:
    """Streaming fleet aggregate + completion set + query surface."""

    def __init__(self, aggregate: Optional[FleetAggregate] = None,
                 completed: Iterable[int] = ()) -> None:
        self.aggregate = aggregate if aggregate is not None \
            else FleetAggregate()
        self.completed = set(completed)

    # -- accumulation -----------------------------------------------------------

    def fold(self, household_index: int,
             summary: Mapping[str, object]) -> None:
        """Fold one finished household; refuses double counting."""
        if household_index in self.completed:
            raise ValueError(
                f"household {household_index} already folded")
        self.aggregate.fold(summary)
        self.completed.add(household_index)

    # -- queries ----------------------------------------------------------------

    @property
    def households(self) -> int:
        return self.aggregate.households

    def acr_rate(self) -> float:
        """Fleet-wide fraction of households with ACR flows."""
        return self.aggregate.acr_fraction()

    def optout_violations(self) -> Dict[str, object]:
        """Opt-out efficacy, live: opted-out households still uploading."""
        agg = self.aggregate
        return {
            "optout_households": agg.optout_households,
            "violating_households": agg.optout_acr_households,
            "violation_rate": agg.optout_leak_fraction(),
        }

    @property
    def findings(self) -> FindingsLedger:
        """Every structured finding folded so far (live view)."""
        return self.aggregate.findings

    def violation_findings(self) -> List[Finding]:
        """The per-household opt-out violation findings, canonical
        order — the structured records behind the
        :meth:`optout_violations` rates."""
        return [finding for finding, __ in self.aggregate.findings
                if finding.code == OPTOUT_VIOLATION_CODE]

    def __repr__(self) -> str:
        return (f"LiveState({self.households} households folded, "
                f"acr_rate={self.acr_rate():.2f})")
