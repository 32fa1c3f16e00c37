"""Per-figure/table experiment drivers, the findings scorecard, the
parallel grid runner with its on-disk result cache, and the future-work
MITM payload study."""

from . import cache
from .grid import (CellRecord, GridFilterError, GridResults, GridRunner,
                   ResultCache, code_version, default_cache_dir,
                   enumerate_cells, parse_filters)
from .mitm_audit import MitmAuditResult, run_mitm_audit
from .fig_cdf import transmitted_curve
from .fig_timelines import TimelineFigure, acr_timeline, build_figure
from .findings import ALL_CHECKS, run_all_checks
from .geolocation import (GeoExperiment, observed_acr_domains,
                          run_geo_experiment)
from .tables_volumes import (build_table, comparison_rows, paper_reference,
                             table2, table3, table4, table5)

__all__ = [
    "ALL_CHECKS",
    "CellRecord",
    "GridFilterError",
    "GridResults",
    "GridRunner",
    "ResultCache",
    "code_version",
    "default_cache_dir",
    "enumerate_cells",
    "parse_filters",
    "MitmAuditResult",
    "run_mitm_audit",
    "GeoExperiment",
    "TimelineFigure",
    "acr_timeline",
    "build_figure",
    "build_table",
    "cache",
    "comparison_rows",
    "observed_acr_domains",
    "paper_reference",
    "run_all_checks",
    "run_geo_experiment",
    "table2",
    "table3",
    "table4",
    "table5",
    "transmitted_curve",
]
