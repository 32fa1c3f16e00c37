"""The black-box audit pipeline: capture decoding, DNS mapping, the
"acr"-substring heuristic with its validations, traffic timelines, byte
volumes, CDFs, periodicity, and cross-phase/country comparisons."""

from .acr_domains import (AcrDomainAuditor, AcrDomainFinding,
                          no_new_acr_domains)
from .blocklists import Blocklist, NetifyDirectory
from .cdf import CumulativeCurve, cumulative_bytes, median_step_interval_s
from .compare import CountryComparison, PhaseComparison, acr_volume_total
from .dns_map import DnsMap
from .periodicity import PeriodicityReport, analyze_periodicity
from .pipeline import AuditPipeline
from .timeline import Timeline, burst_times_ns, packets_per_ms
from .volumes import (VolumeCell, VolumeTable, build_volume_table,
                      normalize_rotating)

__all__ = [
    "AcrDomainAuditor",
    "AcrDomainFinding",
    "AuditPipeline",
    "Blocklist",
    "CountryComparison",
    "CumulativeCurve",
    "DnsMap",
    "NetifyDirectory",
    "PeriodicityReport",
    "PhaseComparison",
    "Timeline",
    "VolumeCell",
    "VolumeTable",
    "acr_volume_total",
    "analyze_periodicity",
    "build_volume_table",
    "burst_times_ns",
    "cumulative_bytes",
    "median_step_interval_s",
    "no_new_acr_domains",
    "normalize_rotating",
    "packets_per_ms",
]
