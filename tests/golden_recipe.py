"""The golden-corpus artifact recipe — one definition for both sides.

``scripts/update_golden.py`` *writes* these artifacts under
``tests/golden/`` and ``tests/test_golden_corpus.py`` *regenerates and
compares* them; both iterate :func:`artifacts` so the name set, vendor
selections and byte-level conventions (e.g. the CLI's trailing newline
on the report) can never drift apart.  It lives beside the corpus
because nothing else reads it; the script puts ``tests/`` on its path.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.experiments.findings import render_checks, run_all_checks
from repro.experiments.report import generate

DEFAULT_SEED = 7


def artifacts(seed: int = DEFAULT_SEED,
              jobs: Optional[int] = None) -> Iterator[Tuple[str, str]]:
    """Yield ``(artifact name, content)`` for every golden pin.

    Everything is a pure function of (seed, one simulated hour per
    cell), so the bytes are identical on every machine and across job
    counts.  ``scorecard_paper.txt`` and ``report_paper.md`` double as
    the executed proof that the registry refactor left the paper
    vendors' output untouched.
    """
    yield "scorecard_paper.txt", render_checks(
        run_all_checks(seed, jobs=jobs, vendors=("samsung", "lg")))
    yield "scorecard_roku.txt", render_checks(
        run_all_checks(seed, jobs=jobs, vendors=("roku",)))
    yield "scorecard_vizio.txt", render_checks(
        run_all_checks(seed, jobs=jobs, vendors=("vizio",)))
    # print() appends the newline in the CLI, so the file carries it too.
    yield "report_paper.md", generate(
        seed, jobs=jobs, vendors=("samsung", "lg")) + "\n"
