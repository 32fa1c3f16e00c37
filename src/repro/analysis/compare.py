"""Differential comparisons across phases and countries (§4.2, §4.3)."""

from __future__ import annotations

from typing import List, Optional

from .pipeline import AuditPipeline
from .volumes import normalize_rotating


class PhaseComparison:
    """Login-status / opt-out differential between two captures."""

    __slots__ = ("label_a", "label_b", "domains_a", "domains_b",
                 "volumes_a", "volumes_b")

    def __init__(self, label_a: str, pipeline_a: AuditPipeline,
                 label_b: str, pipeline_b: AuditPipeline) -> None:
        self.label_a = label_a
        self.label_b = label_b
        self.domains_a = set(map(normalize_rotating,
                                 pipeline_a.acr_candidate_domains()))
        self.domains_b = set(map(normalize_rotating,
                                 pipeline_b.acr_candidate_domains()))
        self.volumes_a = {normalize_rotating(d): pipeline_a.kilobytes_for(d)
                          for d in pipeline_a.acr_candidate_domains()}
        self.volumes_b = {normalize_rotating(d): pipeline_b.kilobytes_for(d)
                          for d in pipeline_b.acr_candidate_domains()}

    @property
    def same_domain_set(self) -> bool:
        """§4.2: "the set of ACR domains contacted ... remains identical"."""
        return self.domains_a == self.domains_b

    def volume_ratio(self, domain: str) -> Optional[float]:
        """B/A volume ratio for one (normalized) domain."""
        a = self.volumes_a.get(domain, 0.0)
        b = self.volumes_b.get(domain, 0.0)
        if a == 0.0:
            return None if b == 0.0 else float("inf")
        return b / a

    def volumes_similar(self, tolerance: float = 0.5) -> bool:
        """True when every shared domain's volume is within tolerance
        (|log-ratio| bounded) — "a high degree of similarity"."""
        shared = self.domains_a & self.domains_b
        for domain in shared:
            ratio = self.volume_ratio(domain)
            if ratio is None or ratio == float("inf"):
                return False
            if not (1.0 - tolerance) <= ratio <= 1.0 / (1.0 - tolerance):
                return False
        return True

    @property
    def b_is_silent(self) -> bool:
        """§4.2 opt-out check: B shows no traffic to A's ACR domains."""
        return all(volume == 0.0 for volume in self.volumes_b.values()) \
            and not self.domains_b

    def __repr__(self) -> str:
        return (f"PhaseComparison({self.label_a} vs {self.label_b}, "
                f"same_domains={self.same_domain_set})")


class CountryComparison:
    """UK-vs-US differential for one vendor/scenario/phase (§4.3)."""

    __slots__ = ("uk_domains", "us_domains")

    def __init__(self, uk: AuditPipeline, us: AuditPipeline) -> None:
        self.uk_domains = set(uk.acr_candidate_domains())
        self.us_domains = set(us.acr_candidate_domains())

    @property
    def distinct_domain_names(self) -> bool:
        """The two regions contact non-identical ACR hostname sets
        (shared infrastructure like log-config may overlap)."""
        return self.uk_domains != self.us_domains

    @property
    def uk_only(self) -> List[str]:
        return sorted(self.uk_domains - self.us_domains)

    @property
    def us_only(self) -> List[str]:
        return sorted(self.us_domains - self.uk_domains)

    def __repr__(self) -> str:
        return (f"CountryComparison(uk_only={self.uk_only}, "
                f"us_only={self.us_only})")


def acr_volume_total(pipeline: AuditPipeline) -> float:
    """Total KB across every "acr" candidate domain in one capture."""
    return sum(pipeline.kilobytes_for(d)
               for d in pipeline.acr_candidate_domains())
