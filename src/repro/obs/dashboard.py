"""The live ANSI terminal observatory over grid, fleet and service runs.

One :class:`Dashboard` renders a box-drawing frame on stderr — overall
progress bar, executed/cached meters, cache hit rate, a vendor×country
ACR-hit heatmap, and a sparkline of ACR upload volume over the run —
redrawn in place (cursor-up + erase) and throttled to a few frames per
second.  Everything in the frame is a *view* over state the run already
maintains: the :class:`~repro.fleet.aggregate.FleetAggregate` the
report is rendered from and the active :mod:`repro.obs.metrics`
snapshot.  The dashboard never computes a number of its own, so
turning it on cannot change a result.

Fallback discipline (ansviewer-style): when stderr is not a TTY, when
``NO_COLOR`` is set, when ``TERM=dumb``, or when the user passes
``--plain``, the dashboard degrades to one plain, byte-stable progress
line per update — safe for logs and CI.

:func:`render_frame` is a pure function of a :class:`DashboardView`, so
frames are golden-testable byte for byte.
"""

from __future__ import annotations

import os
import sys
import time
from collections import OrderedDict
from typing import List, Mapping, Optional, Sequence

from ..reporting.ascii_plot import BARS, meter, sparkline

#: Minimum seconds between live redraws (updates in between only
#: refresh the view; the next redraw shows the latest state).
REFRESH_INTERVAL_S = 0.25
#: Columns a live frame spans, borders included.
WIDTH = 80

_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"


def detect_plain(stream, plain: bool) -> bool:
    """Should output to ``stream`` degrade to plain progress lines?

    True for an explicit ``--plain``, ``NO_COLOR`` (any value),
    ``TERM=dumb``, or a stream that is not a terminal.
    """
    if plain:
        return True
    if os.environ.get("NO_COLOR"):
        return True
    if os.environ.get("TERM", "") == "dumb":
        return True
    isatty = getattr(stream, "isatty", None)
    return not (isatty and isatty())


class DashboardView:
    """Everything one frame renders, as plain data (pure-render input)."""

    __slots__ = ("title", "unit", "done", "total", "executed", "cached",
                 "elapsed_s", "snapshot", "aggregate", "spark", "note")

    def __init__(self, title: str, unit: str, done: int, total: int,
                 executed: int = 0, cached: int = 0,
                 elapsed_s: float = 0.0,
                 snapshot: Optional[Mapping] = None,
                 aggregate=None,
                 spark: Sequence[float] = ()) -> None:
        self.title = title
        self.unit = unit
        self.done = done
        self.total = total
        self.executed = executed
        self.cached = cached
        self.elapsed_s = elapsed_s
        self.snapshot = snapshot
        self.aggregate = aggregate
        self.spark = spark
        #: A closing remark :meth:`Dashboard.finish` sets.
        self.note: Optional[str] = None


# -- pure rendering -----------------------------------------------------------


def _heat_char(rate: float) -> str:
    """One heatmap cell on the shared intensity ramp ('·' = no data)."""
    if rate <= 0:
        return "."
    index = max(1, min(len(BARS) - 1,
                       round(rate * (len(BARS) - 1))))
    return BARS[index]


def _heatmap_lines(aggregate, inner: int) -> List[str]:
    """Vendor×country ACR-hit rates off the aggregate's cross counters."""
    vendors = sorted(aggregate.vendors)
    countries = sorted(aggregate.countries)
    if not vendors or not countries:
        return []
    label_w = max([len("acr heat")] + [len(v) for v in vendors]) + 1
    lines = ["acr heat".ljust(label_w)
             + " ".join(f"{c:>4s}" for c in countries)]
    totals = aggregate.households_by_vendor_country
    hits = aggregate.acr_households_by_vendor_country
    for vendor in vendors:
        cells = []
        for country in countries:
            key = f"{vendor}/{country}"
            total = totals.get(key, 0)
            if not total:
                cells.append(f"{'':>4s}")
            else:
                rate = hits.get(key, 0) / total
                cells.append(f"{_heat_char(rate) * 2:>4s}")
        lines.append(vendor.ljust(label_w) + " ".join(cells))
    return [line[:inner] for line in lines]


def render_frame(view: DashboardView, color: bool = False) -> str:
    """Render one complete frame (no trailing newline), :data:`WIDTH`
    columns wide, deterministically from the view alone — the
    golden-frame tests pin this byte for byte."""
    inner = WIDTH - 4  # borders plus one space of padding each side
    lines: List[str] = []

    def emit(text: str = "") -> None:
        lines.append(text[:inner])

    total = max(view.total, 1)
    fraction = view.done / total
    bar = meter(fraction, max(10, inner - 34))
    emit(f"progress {bar} {view.done}/{view.total} {view.unit} "
         f"{100.0 * fraction:5.1f}%")
    rate = view.done / view.elapsed_s if view.elapsed_s > 0 else 0.0
    emit(f"executed {view.executed}   cached {view.cached}   "
         f"elapsed {view.elapsed_s:6.1f}s   rate {rate:6.2f}/s")

    counters = (view.snapshot or {}).get("counters", {})
    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    looked = hits + misses
    if looked:
        emit(f"cache    {meter(hits / looked, 20)} "
             f"{100.0 * hits / looked:5.1f}% hit   "
             f"({hits} hit / {misses} miss / "
             f"{counters.get('cache.store', 0)} stored)")
    built = counters.get("decode.columnar.packets", 0)
    if built:
        emit(f"columns  {built} pkts decoded")
    injected = sum(value for name, value in counters.items()
                   if name.startswith("faults.injected."))
    recovered = sum(value for name, value in counters.items()
                    if name.startswith("faults.recovered."))
    degraded = sum(value for name, value in counters.items()
                   if name.startswith("faults.degraded."))
    if injected or recovered or degraded:
        # Fault-injection recovery meter; absent entirely on clean runs
        # so the existing golden frames stay byte-identical.
        fraction = min(1.0, recovered / injected) if injected else 1.0
        emit(f"faults   {meter(fraction, 20)} "
             f"{recovered}/{injected} recovered   "
             f"{degraded} degraded")
    if view.aggregate is not None and view.aggregate.households:
        emit()
        for line in _heatmap_lines(view.aggregate, inner):
            emit(line)
    if view.spark:
        emit()
        emit("uploads  |" + sparkline(view.spark, inner - 11) + "|")
    if view.note:
        emit()
        emit(view.note)

    title = f" {view.title} "
    if color:
        title = f"{_BOLD}{title}{_RESET}"
        pad = len(_BOLD) + len(_RESET)
    else:
        pad = 0
    top = "┌─" + title + "─" * (WIDTH - 3 - len(title) + pad) + "┐"
    body = ["│ " + line.ljust(inner) + " │" for line in lines]
    bottom = "└" + "─" * (WIDTH - 2) + "┘"
    return "\n".join([top] + body + [bottom])


def render_plain_line(view: DashboardView) -> str:
    """The byte-stable fallback line: progress counts only, no timing,
    so CI logs are reproducible run to run."""
    line = (f"[{view.title}] {view.done}/{view.total} {view.unit} "
            f"({view.executed} executed, {view.cached} cached)")
    if view.note:
        line += f" -- {view.note}"
    return line


# -- the live widget ----------------------------------------------------------


class Dashboard:
    """Owns the redraw loop around :func:`render_frame`.

    ``update`` is cheap to call per completion event; actual terminal
    writes are throttled.  In plain mode every update prints one
    :func:`render_plain_line` instead (so even ``--plain`` runs report
    progress — never silence).
    """

    def __init__(self, title: str, total: int, unit: str = "items",
                 plain: bool = False, registry=None) -> None:
        self.title = title
        self.total = total
        self.unit = unit
        self.stream = sys.stderr
        self.plain = detect_plain(self.stream, plain)
        self._registry = registry
        self._started = time.perf_counter()
        self._last_draw = 0.0
        self._last_height = 0
        self._last_plain = ""
        #: ACR upload volume samples (one per update) for the sparkline.
        self._spark: "OrderedDict[int, float]" = OrderedDict()
        self._view = DashboardView(title, unit, 0, total)

    # -- state ------------------------------------------------------------------

    def update(self, done: int, executed: int = 0, cached: int = 0,
               aggregate=None) -> None:
        """Refresh the view; redraw if the throttle window has passed."""
        snapshot = self._registry.snapshot() if self._registry is not None \
            else None
        spark = list(self._view.spark)
        if aggregate is not None:
            previous = sum(self._spark.values())
            self._spark[len(self._spark)] = \
                aggregate.acr_upload_bytes - previous
            spark = list(self._spark.values())
        self._view = DashboardView(
            self.title, self.unit, done, self.total,
            executed=executed, cached=cached,
            elapsed_s=time.perf_counter() - self._started,
            snapshot=snapshot, aggregate=aggregate, spark=spark)
        self._draw()

    def finish(self, note: Optional[str] = None) -> None:
        """Draw the final frame (always) and leave the cursor below it."""
        if note is not None:
            self._view.note = note
        self._draw(force=True)

    # -- drawing ----------------------------------------------------------------

    def _draw(self, force: bool = False) -> None:
        if self.plain:
            # No throttle: plain output must be a deterministic
            # function of the update sequence (CI logs byte-stable
            # run to run), so every *changed* line prints.
            line = render_plain_line(self._view)
            if line != self._last_plain:
                self._last_plain = line
                print(line, file=self.stream, flush=True)
            return
        now = time.perf_counter()
        if not force and now - self._last_draw < REFRESH_INTERVAL_S:
            return
        self._last_draw = now
        frame = render_frame(self._view, color=True)
        lines = frame.split("\n")
        out = []
        if self._last_height:
            out.append(f"\x1b[{self._last_height}F")
        # Erase-to-EOL per line so a shrinking frame leaves no residue.
        out.extend(line + "\x1b[K\n" for line in lines)
        if self._last_height > len(lines):
            out.append("\x1b[0J")
        self.stream.write("".join(out))
        self.stream.flush()
        self._last_height = len(lines)
