"""Terminal plot primitives (meters, sparklines, intensity ramp) the
live dashboard (:mod:`repro.obs.dashboard`) composes its frames from."""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Intensity ramp shared by heatmap cells and sparklines: index 0 is
#: "nothing", the last index is "peak".
BARS = " .:-=+*#%@"


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

