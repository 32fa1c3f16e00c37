"""The canonical cell identity.

One-hour captures are deterministic in (spec, seed), so a finished
capture is named by its label, seed and duration: :func:`cell_key`.
"""

from __future__ import annotations

# Not used here: perfbench's trace targets wrap ``campaign.run_experiment``
# and ``campaign.validate``, and a missing name fails every traced run.
from .runner import run_experiment
from .validation import validate

__all__ = ["cell_key", "run_experiment", "validate"]


def cell_key(label: str, seed: int, duration_ns: int) -> str:
    """The canonical ``label-seed-duration`` cell key.

    The grid's content-addressed
    :class:`~repro.experiments.grid.ResultCache` hashes this string
    (salted with the code version), for spec- and label-addressed
    lookups alike.
    """
    return f"{label}-s{seed}-d{duration_ns}"
