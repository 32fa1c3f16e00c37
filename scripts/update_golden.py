"""Regenerate the golden-corpus pins under ``tests/golden/``.

Run via ``make golden-update`` whenever an intentional simulation change
shifts the scorecard or report bytes.  The committed artifacts turn
"output is byte-identical" claims into an executed test
(``tests/test_golden_corpus.py``) instead of a manual diff.

The artifact recipe itself lives in ``tests/golden_recipe.py``, beside
the corpus and shared with the test, so the two sides always agree on
names, vendor selections and byte conventions.

The cells run through a temporary result cache, removed at exit, unless
``REPRO_CACHE_DIR`` names one: every source edit changes every cache
key, so entries stored in the user's cache would never be read again.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# The artifact recipe lives beside the corpus it writes.
sys.path.insert(1, os.path.join(os.path.dirname(__file__), "..", "tests"))

from golden_recipe import artifacts  # noqa: E402
from repro.util import atomic_write_text  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "..", "tests", "golden")
JOBS = max(1, (os.cpu_count() or 2) - 1)


def main() -> int:
    if "REPRO_CACHE_DIR" in os.environ:
        return write_pins()
    with tempfile.TemporaryDirectory(
            prefix="repro-acr-golden-cache-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        return write_pins()


def write_pins() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    pins = {}
    for name, content in artifacts(jobs=JOBS):
        path = os.path.join(GOLDEN_DIR, name)
        atomic_write_text(path, content)
        pins[name] = hashlib.sha256(content.encode("utf-8")).hexdigest()
        print(f"wrote {name} ({len(content)} bytes, "
              f"sha256 {pins[name][:16]}...)")
    atomic_write_text(os.path.join(GOLDEN_DIR, "golden.json"),
                      json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote golden.json ({len(pins)} pins)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
