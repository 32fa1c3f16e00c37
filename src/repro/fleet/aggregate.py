"""Constant-memory streaming aggregation over household audits.

A fleet of N households produces N captures; nothing population-scale
should ever hold more than one of them.  The flow is::

    capture -> AuditPipeline -> summarize_household() -> small int dict
                                        |
                                        v  fold()            merge()
                              FleetAggregate  <———  shard aggregates

``summarize_household`` reduces one decoded capture to a handful of
integers, after which the capture is discarded.  :class:`FleetAggregate`
folds summaries and merges with other aggregates; every accumulator is
an integer (or a Counter of integers), so ``merge`` is associative *and*
commutative in exact arithmetic — shard results combine in any order and
a ``--jobs 8`` fleet report is byte-identical to a serial one.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping

from ..analysis.pipeline import AuditPipeline
from ..findings import DEGRADATION_CODE, Finding, FindingsLedger
from ..sim.clock import seconds


def _add_nonzero(counter: Counter, key, amount: int) -> None:
    """Accumulate without ever materializing a zero-count entry.

    ``Counter`` equality is plain dict equality, so a counter holding an
    explicit zero entry compares unequal to an empty one even though
    they describe the same population.  If
    folds and merges were allowed to leave explicit zeros behind, an
    aggregate restored from a checkpoint (which serializes only nonzero
    counts) would compare unequal to the live aggregate it snapshotted,
    and ``FleetAggregate()`` would stop being a true merge identity.
    Every accumulation therefore goes through this guard.
    """
    if amount:
        counter[key] += amount

#: TV→ACR packets closer together than this belong to one contact burst.
BURST_GAP_NS = seconds(5)


def summarize_household(household, pipeline: AuditPipeline,
                        packet_count: int, pcap_len: int
                        ) -> Dict[str, object]:
    """Reduce one household's decoded capture to a flat summary dict.

    The summary is all primitives (strings, ints, a small list of
    domain names), so it pickles cheaply and folds in O(1) memory.
    ``household`` needs ``vendor``/``country``/``phase``/``diary``
    attributes (a :class:`~repro.fleet.population.HouseholdSpec`).
    """
    domains = pipeline.acr_candidate_domains()
    acr_bytes = sum(pipeline.bytes_for(domain) for domain in domains)
    upload = sum(pipeline.bytes_sent_to(domain) for domain in domains)

    uploads_ts = pipeline.upload_timestamps(domains)
    burst_starts: List[int] = []
    previous = None
    for timestamp in uploads_ts:
        if previous is None or timestamp - previous > BURST_GAP_NS:
            burst_starts.append(timestamp)
        previous = timestamp
    intervals = [after - before for before, after
                 in zip(burst_starts, burst_starts[1:])]

    return {
        "label": household.label,
        "index": household.index,
        "vendor": household.vendor.value,
        "country": household.country.value,
        "phase": household.phase.value,
        "diary": household.diary,
        "opted_in": household.phase.opted_in,
        "packets": packet_count,
        "pcap_len": pcap_len,
        "acr_domains": sorted(domains),
        "acr_bytes": acr_bytes,
        "acr_upload_bytes": upload,
        "acr_packets": len(uploads_ts),
        "acr_bursts": len(burst_starts),
        "cadence_sum_ns": sum(intervals),
        "cadence_intervals": len(intervals),
    }


class FleetAggregate:
    """Streaming population statistics with an associative ``merge``.

    ``FleetAggregate()`` is the identity: merging it with anything
    returns that thing's statistics unchanged.
    """

    __slots__ = (
        "households", "packets", "pcap_bytes",
        "vendors", "countries", "phases", "diaries",
        "acr_households", "acr_households_by_vendor",
        "acr_households_by_country",
        "households_by_vendor_country",
        "acr_households_by_vendor_country",
        "acr_bytes", "acr_bytes_by_vendor", "acr_bytes_by_country",
        "acr_upload_bytes", "acr_upload_bytes_by_vendor",
        "acr_packets", "acr_bursts",
        "cadence_sum_ns_by_vendor", "cadence_intervals_by_vendor",
        "optin_households", "optin_acr_households",
        "optout_households", "optout_acr_households",
        "domain_households", "degradations", "findings",
    )

    def __init__(self) -> None:
        self.households = 0
        self.packets = 0
        self.pcap_bytes = 0
        self.vendors: Counter = Counter()
        self.countries: Counter = Counter()
        self.phases: Counter = Counter()
        self.diaries: Counter = Counter()
        self.acr_households = 0
        self.acr_households_by_vendor: Counter = Counter()
        self.acr_households_by_country: Counter = Counter()
        #: "vendor/country" -> households (and the ACR-showing subset);
        #: the live dashboard's heatmap is a pure view over these two.
        self.households_by_vendor_country: Counter = Counter()
        self.acr_households_by_vendor_country: Counter = Counter()
        self.acr_bytes = 0
        self.acr_bytes_by_vendor: Counter = Counter()
        self.acr_bytes_by_country: Counter = Counter()
        self.acr_upload_bytes = 0
        self.acr_upload_bytes_by_vendor: Counter = Counter()
        self.acr_packets = 0
        self.acr_bursts = 0
        self.cadence_sum_ns_by_vendor: Counter = Counter()
        self.cadence_intervals_by_vendor: Counter = Counter()
        self.optin_households = 0
        self.optin_acr_households = 0
        self.optout_households = 0
        self.optout_acr_households = 0
        #: domain -> number of households that contacted it
        self.domain_households: Counter = Counter()
        #: evidence string -> occurrences, one per capture record (or
        #: segment) quarantined instead of audited.  Empty on every
        #: clean run, so the report and checkpoints are byte-identical
        #: with and without the fault layer present.  Derived from the
        #: ``DEG`` findings in :attr:`findings` (same fold, one source).
        self.degradations: Counter = Counter()
        #: Every structured finding the fleet produced: degradation
        #: quarantines folded from summaries plus the opt-out
        #: violations this aggregate emits itself.  Merges with the
        #: same associative/commutative algebra as the Counters.
        self.findings = FindingsLedger()

    # -- accumulation -----------------------------------------------------------

    def fold(self, summary: Mapping[str, object]) -> "FleetAggregate":
        """Absorb one household summary (then the caller discards it)."""
        vendor = summary["vendor"]
        country = summary["country"]
        has_acr = summary["acr_packets"] > 0 or bool(
            summary["acr_domains"])

        self.households += 1
        self.packets += summary["packets"]
        self.pcap_bytes += summary["pcap_len"]
        self.vendors[vendor] += 1
        self.countries[country] += 1
        self.phases[summary["phase"]] += 1
        self.diaries[summary["diary"]] += 1

        self.households_by_vendor_country[f"{vendor}/{country}"] += 1
        if has_acr:
            self.acr_households += 1
            self.acr_households_by_vendor[vendor] += 1
            self.acr_households_by_country[country] += 1
            self.acr_households_by_vendor_country[
                f"{vendor}/{country}"] += 1
        self.acr_bytes += summary["acr_bytes"]
        _add_nonzero(self.acr_bytes_by_vendor, vendor,
                     summary["acr_bytes"])
        _add_nonzero(self.acr_bytes_by_country, country,
                     summary["acr_bytes"])
        self.acr_upload_bytes += summary["acr_upload_bytes"]
        _add_nonzero(self.acr_upload_bytes_by_vendor, vendor,
                     summary["acr_upload_bytes"])
        self.acr_packets += summary["acr_packets"]
        self.acr_bursts += summary["acr_bursts"]
        _add_nonzero(self.cadence_sum_ns_by_vendor, vendor,
                     summary["cadence_sum_ns"])
        _add_nonzero(self.cadence_intervals_by_vendor, vendor,
                     summary["cadence_intervals"])

        if summary["opted_in"]:
            self.optin_households += 1
            self.optin_acr_households += int(has_acr)
        else:
            self.optout_households += 1
            self.optout_acr_households += int(has_acr)

        for domain in summary["acr_domains"]:
            self.domain_households[domain] += 1
        for finding in summary.get("findings", ()):
            self.findings.fold(finding)
            if finding.code == DEGRADATION_CODE and finding.evidence:
                self.degradations[finding.evidence[0].text] += 1
        if not summary["opted_in"] and has_acr:
            # Emitted here — the single fold point shared by the batch
            # fleet and the streaming service — so the two paths cannot
            # diverge on what counts as a violation.
            self.findings.fold(Finding.optout_violation(
                summary.get("label"), summary.get("index"),
                vendor, country, summary["phase"],
                summary["acr_bytes"], summary["acr_domains"]))
        return self

    def merge(self, other: "FleetAggregate") -> "FleetAggregate":
        """A new aggregate combining two (shards combine this way).

        Zero counts never cross a merge: ``Counter.update`` would copy
        an explicit zero entry verbatim, which would make the result
        compare unequal to an arithmetically identical aggregate built
        down a different fold path (see :func:`_add_nonzero`).
        """
        merged = FleetAggregate()
        for part in (self, other):
            for slot in FleetAggregate.__slots__:
                value = getattr(part, slot)
                if isinstance(value, Counter):
                    target = getattr(merged, slot)
                    for key, count in value.items():
                        _add_nonzero(target, key, count)
                else:
                    # Integers add; the findings ledger's __add__ is
                    # its own (equally associative) merge.
                    setattr(merged, slot, getattr(merged, slot) + value)
        return merged

    # -- checkpoint serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot: integers verbatim, Counters as sorted
        dicts of their nonzero entries (the canonical form — equality
        with a live aggregate survives the round-trip)."""
        state: Dict[str, object] = {}
        for slot in FleetAggregate.__slots__:
            value = getattr(self, slot)
            if isinstance(value, Counter):
                state[slot] = {key: count for key, count
                               in sorted(value.items()) if count}
            elif isinstance(value, FindingsLedger):
                state[slot] = value.to_jsonable()
            else:
                state[slot] = value
        return state

    @classmethod
    def from_dict(cls, state: Mapping[str, object]) -> "FleetAggregate":
        """Rebuild a snapshot written by :meth:`to_dict`."""
        aggregate = cls()
        for slot in cls.__slots__:
            value = state.get(slot)
            if value is None:
                # A snapshot written before this slot existed: keep the
                # (empty/zero) default rather than refusing the resume.
                continue
            if isinstance(getattr(aggregate, slot), Counter):
                counter = getattr(aggregate, slot)
                for key, count in value.items():
                    _add_nonzero(counter, key, int(count))
            elif isinstance(getattr(aggregate, slot), FindingsLedger):
                setattr(aggregate, slot,
                        FindingsLedger.from_jsonable(value))
            else:
                setattr(aggregate, slot, int(value))
        return aggregate

    # -- derived views ----------------------------------------------------------

    def acr_fraction(self) -> float:
        return self.acr_households / self.households \
            if self.households else 0.0

    def mean_cadence_s(self, vendor: str) -> float:
        intervals = self.cadence_intervals_by_vendor[vendor]
        if not intervals:
            return 0.0
        return (self.cadence_sum_ns_by_vendor[vendor]
                / intervals / 1e9)

    def optout_leak_fraction(self) -> float:
        """Fraction of opted-out households that still show ACR flows."""
        return self.optout_acr_households / self.optout_households \
            if self.optout_households else 0.0

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FleetAggregate)
                and all(getattr(self, slot) == getattr(other, slot)
                        for slot in FleetAggregate.__slots__))

    def __repr__(self) -> str:
        return (f"FleetAggregate({self.households} households, "
                f"{self.acr_households} with ACR flows)")


def merge_all(aggregates) -> FleetAggregate:
    """Left-fold ``merge`` over shard aggregates (associative, so the
    grouping is irrelevant; callers still pass shards in index order so
    even floating-point *consumers* of the result see one canonical
    object)."""
    merged = FleetAggregate()
    for aggregate in aggregates:
        merged = merged.merge(aggregate)
    return merged
