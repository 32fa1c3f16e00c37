"""Per-figure/table experiment drivers, the findings scorecard, the
parallel grid runner with its on-disk result cache, and the future-work
studies (MITM payloads, blocklist evaluation)."""

from . import cache
from .blocklist_eval import (BlocklistEvaluation, BlocklistTrial,
                             run_evaluation, run_trial)
from .grid import (CellRecord, GridFilterError, GridResults, GridRunner,
                   ResultCache, code_version, default_cache_dir,
                   enumerate_cells, parse_filters)
from .mitm_audit import MitmAuditResult, run_mitm_audit
from .fig_cdf import (CdfFigure, build_cdf_figure, figure5, figure7,
                      transmitted_curve)
from .fig_timelines import (TimelineFigure, acr_timeline, build_figure,
                            figure4, figure6, figures_8_to_11)
from .findings import (ALL_CHECKS, FindingCheck, run_all_checks, scorecard)
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
    "BlocklistEvaluation",
    "BlocklistTrial",
    "CdfFigure",
    "MitmAuditResult",
    "run_evaluation",
    "run_mitm_audit",
    "run_trial",
    "FindingCheck",
    "GeoExperiment",
    "TimelineFigure",
    "acr_timeline",
    "build_cdf_figure",
    "build_figure",
    "build_table",
    "cache",
    "comparison_rows",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figures_8_to_11",
    "observed_acr_domains",
    "paper_reference",
    "run_all_checks",
    "run_geo_experiment",
    "scorecard",
    "table2",
    "table3",
    "table4",
    "table5",
    "transmitted_curve",
]
