"""Observability layer: mergeable metrics plus the terminal observatory.

Two halves, one discipline:

* :mod:`repro.obs.metrics` — counters/gauges/histograms/spans whose
  snapshots merge associatively (the ``FleetAggregate`` discipline), a
  no-op singleton when disabled, and a stable JSONL export.
* :mod:`repro.obs.dashboard` — the live ANSI frame (and its byte-stable
  plain fallback), rendered purely as a *view* over the aggregates and
  metric snapshots the run already maintains.

The dashboard half is loaded lazily (PEP 562): instrumented hot layers
(``net``, ``acr``, ``analysis``, ...) import ``repro.obs.metrics``,
and eagerly importing the renderer here would drag the reporting/
analysis stack into every one of them — a cycle waiting to happen.
"""

from .metrics import (METRICS_SCHEMA_VERSION, MetricsRegistry,
                      NullRegistry, disable, enable, get_registry,
                      metrics_enabled, scoped, snapshot_to_jsonl,
                      write_metrics_jsonl)

_DASHBOARD_NAMES = ("Dashboard", "DashboardView", "detect_plain",
                    "render_frame", "render_plain_line")

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "NullRegistry",
    "disable",
    "enable",
    "get_registry",
    "metrics_enabled",
    "scoped",
    "snapshot_to_jsonl",
    "write_metrics_jsonl",
] + list(_DASHBOARD_NAMES)


def __getattr__(name):
    if name in _DASHBOARD_NAMES:
        from . import dashboard
        return getattr(dashboard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
