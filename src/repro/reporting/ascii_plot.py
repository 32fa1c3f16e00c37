"""Terminal plots: spike timelines (Figures 4/6) and CDF curves (5/7),
plus the small primitives (meters, sparklines, intensity ramp) the live
dashboard (:mod:`repro.obs.dashboard`) composes its frames from."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..analysis.cdf import CumulativeCurve
from ..analysis.timeline import Timeline

#: Intensity ramp shared by spike plots, heatmap cells and sparklines:
#: index 0 is "nothing", the last index is "peak".
BARS = " .:-=+*#%@"
_BARS = BARS  # historical private alias

#: Fixed label column width in stacked timeline plots.
LABEL_WIDTH = 24


def fit_label(label: str, width: int = LABEL_WIDTH) -> str:
    """Pad — or truncate with an ellipsis — to exactly ``width`` columns.

    Long labels used to overflow the fixed ``{label:24s}`` field and
    break column alignment in stacked plots; every labelled plot now
    routes through this.
    """
    if len(label) <= width:
        return f"{label:<{width}s}"
    if width <= 3:
        return label[:width]
    return label[:width - 3] + "..."


def meter(fraction: float, width: int = 20) -> str:
    """A filled horizontal bar, e.g. ``[######--------------]``."""
    if width <= 0:
        return ""
    fraction = min(1.0, max(0.0, fraction))
    filled = round(fraction * width)
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def sparkline(values: Sequence[float], width: int = 0) -> str:
    """One character per value on the :data:`BARS` ramp, scaled to the
    sequence's own peak (an all-zero sequence renders as spaces).

    With ``width`` set, the sequence is resampled (by max within each
    slice) so the line occupies exactly that many columns.
    """
    data = np.asarray(list(values), dtype=np.float64)
    if width and len(data) > width:
        data = np.array([chunk.max() if len(chunk) else 0.0
                         for chunk in np.array_split(data, width)])
    if len(data) == 0:
        return " " * width
    top = data.max()
    if top <= 0:
        body = " " * len(data)
    else:
        levels = np.ceil(data / top * (len(BARS) - 1)).astype(int)
        body = "".join(BARS[level] for level in levels)
    if width and len(body) < width:
        body = body.ljust(width)
    return body


def plot_timeline(timeline: Timeline, width: int = 80,
                  label: str = "") -> str:
    """A one-line spike plot: each column is a window slice, character
    height encodes the peak packets/ms inside the slice.

    The slices are ``np.array_split``'s over the bins: the first
    ``len(timeline) % width`` slices hold one bin more than the rest
    (and a window shorter than ``width`` leaves the last columns empty).
    """
    if len(timeline) == 0:
        return f"{label} (empty)"
    if width <= 0:
        raise ValueError("width must be positive")
    size, extra = divmod(len(timeline), width)
    column = np.arange(1, width + 1)
    slice_ends = column * size + np.minimum(column, extra)
    peaks = np.zeros(width, dtype=np.float64)
    np.maximum.at(peaks, np.searchsorted(slice_ends, timeline.indexes,
                                         side="right"), timeline.values)
    top = peaks.max()
    if top == 0:
        body = " " * width
    else:
        levels = np.ceil(peaks / top * (len(BARS) - 1)).astype(int)
        body = "".join(BARS[level] for level in levels)
    return f"{fit_label(label)} |{body}| peak={int(top)} pkts/bin"


def plot_timelines(timelines: Sequence[Timeline],
                   labels: Sequence[str], width: int = 80) -> str:
    return "\n".join(plot_timeline(t, width, l)
                     for t, l in zip(timelines, labels))


def plot_cdf(curve: CumulativeCurve, width: int = 60, height: int = 10,
             label: str = "") -> str:
    """A block-character CDF plot (fraction of bytes vs time)."""
    lines: List[str] = []
    if label:
        lines.append(label)
    if len(curve) == 0:
        lines.append("(no traffic)")
        return "\n".join(lines)
    duration = float(curve.times_s[-1]) or 1.0
    grid_t = np.linspace(0.0, duration, width)
    fractions = np.array([curve.value_at(t) for t in grid_t],
                         dtype=np.float64)
    total = curve.total_bytes or 1
    fractions /= total
    for row in range(height, 0, -1):
        threshold = row / height
        line = "".join("#" if f >= threshold - 1e-9 else " "
                       for f in fractions)
        prefix = f"{threshold:4.1f} " if row in (height, 1) else "     "
        lines.append(prefix + "|" + line)
    lines.append("     +" + "-" * width)
    lines.append(f"     0s{'':{max(0, width - 12)}}{duration:.0f}s")
    return "\n".join(lines)
