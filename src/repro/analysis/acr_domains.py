"""The ACR-domain identification heuristic with its three-way validation.

§3.2: "we filter the list of contacted domains ... retaining only those
containing the string 'acr'", validated because (1) blocklists classify
them as tracking-related, (2) the numbered naming scheme is consistent,
and (3) they disappear after opting out and show regular contact patterns,
unlike e.g. ``samsungads.com``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from ..net.columnar import ColumnarSlice
from .blocklists import Blocklist, NetifyDirectory
from .periodicity import PeriodicityReport, analyze_periodicity
from .pipeline import AuditPipeline

_NUMBERED_RE = re.compile(r"\d")


def _contacts(packets: ColumnarSlice) -> ColumnarSlice:
    """The packets that carry transport payload: the contacts the
    cadence heuristic scores.  A bare ACK or the FIN/ACK teardown that
    closes a session is not a contact; counted as one, a teardown just
    after the last upload reads as one more, short, interval.  Reads the
    payload-length column, so it works on released frames too."""
    rows = packets.indices
    carrying = packets.capture.payload_lengths()[rows] > 0
    return ColumnarSlice(packets.capture, rows[carrying])


class AcrDomainFinding:
    """Everything the heuristic learned about one candidate domain."""

    __slots__ = ("domain", "contains_acr", "blocklist_listed",
                 "netify_category", "numbered_scheme", "periodicity",
                 "disappears_on_optout")

    def __init__(self, domain: str, contains_acr: bool,
                 blocklist_listed: bool, netify_category: Optional[str],
                 numbered_scheme: bool,
                 periodicity: PeriodicityReport,
                 disappears_on_optout: Optional[bool]) -> None:
        self.domain = domain
        self.contains_acr = contains_acr
        self.blocklist_listed = blocklist_listed
        self.netify_category = netify_category
        self.numbered_scheme = numbered_scheme
        self.periodicity = periodicity
        self.disappears_on_optout = disappears_on_optout

    @property
    def validated(self) -> bool:
        """The paper's acceptance bar: name hit + blocklist confirmation
        + behavioural evidence.

        Behavioural evidence is either a regular contact cadence, or — for
        sparse endpoints like boot-time config fetches that are too quiet
        to establish a cadence — the opt-out differential alone.
        """
        if not (self.contains_acr and self.blocklist_listed):
            return False
        sparse = self.periodicity.bursts <= 6
        behavioural = self.periodicity.regular or sparse
        if self.disappears_on_optout is not None:
            return self.disappears_on_optout and behavioural
        return behavioural

    def __repr__(self) -> str:
        return (f"AcrDomainFinding({self.domain}, "
                f"validated={self.validated})")


class AcrDomainAuditor:
    """Runs the heuristic over opted-in (and optionally opted-out)
    captures of the same cell."""

    def __init__(self) -> None:
        self.blocklist = Blocklist()
        self.netify = NetifyDirectory()

    def audit(self, opted_in: AuditPipeline,
              opted_out: Optional[AuditPipeline] = None
              ) -> List[AcrDomainFinding]:
        """One finding per "acr"-substring candidate."""
        findings: List[AcrDomainFinding] = []
        optout_domains = (set(opted_out.contacted_domains)
                          if opted_out is not None else None)
        for domain in opted_in.acr_candidate_domains():
            info = self.netify.classify(domain)
            disappears = (None if optout_domains is None
                          else domain not in optout_domains)
            findings.append(AcrDomainFinding(
                domain=domain,
                contains_acr=True,
                blocklist_listed=self.blocklist.is_listed(domain),
                netify_category=info["category"] if info else None,
                numbered_scheme=bool(_NUMBERED_RE.search(
                    domain.split(".")[0])),
                periodicity=analyze_periodicity(
                    domain, _contacts(opted_in.packets_for(domain))),
                disappears_on_optout=disappears,
            ))
        return findings

    def counterexample_regularity(self, pipeline: AuditPipeline
                                  ) -> Dict[str, PeriodicityReport]:
        """Cadence reports for ad-platform domains — the paper's contrast
        case ("unlike other ad/tracking domains like samsungads.com").

        Ad domains are picked via the Netify classification, excluding the
        "acr" candidates themselves.
        """
        reports: Dict[str, PeriodicityReport] = {}
        for domain in pipeline.contacted_domains:
            if "acr" in domain:
                continue
            if self.netify.is_tracking_related(domain):
                reports[domain] = analyze_periodicity(
                    domain, _contacts(pipeline.packets_for(domain)))
        return reports


def no_new_acr_domains(opted_in: AuditPipeline,
                       opted_out: AuditPipeline) -> bool:
    """§4.2: after opt-out, "no new ACR-related domains are observed"."""
    before = set(opted_in.acr_candidate_domains())
    after = set(opted_out.acr_candidate_domains())
    return after.issubset(before)
