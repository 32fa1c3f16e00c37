"""Golden-corpus regression: scorecard/report bytes are pinned.

The committed artifacts under ``tests/golden/`` (regenerated with
``make golden-update``) pin the per-vendor scorecards and the paper
report byte for byte.  Any unintended simulation or rendering drift —
a reordered dict, a float format change, a perturbed RNG stream — fails
here with a diff instead of silently changing the published numbers.

The artifact recipe is :func:`golden_recipe.artifacts`
(``tests/golden_recipe.py``), shared with ``scripts/update_golden.py`` so the test always validates
exactly what the update script writes.
"""

import hashlib
import json
import os

import pytest

from golden_recipe import artifacts

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
ARTIFACT_NAMES = ("scorecard_paper.txt", "scorecard_roku.txt",
                  "scorecard_vizio.txt", "report_paper.md")


def _read(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r",
              encoding="utf-8") as fileobj:
        return fileobj.read()


def _pins() -> dict:
    return json.loads(_read("golden.json"))


class TestPinIndex:
    """Fast self-consistency: the committed files match their pins."""

    def test_every_pin_has_a_file_and_matches(self):
        pins = _pins()
        assert set(pins) == set(ARTIFACT_NAMES)
        for name, expected in pins.items():
            digest = hashlib.sha256(
                _read(name).encode("utf-8")).hexdigest()
            assert digest == expected, (
                f"{name} does not match its sha256 pin — regenerate "
                f"with `make golden-update` and commit both")


@pytest.mark.slow
class TestRegeneration:
    """The simulator still produces the pinned bytes from scratch."""

    def test_artifacts_are_byte_identical(self):
        pins = _pins()
        seen = set()
        for name, content in artifacts():
            seen.add(name)
            expected = _read(name)
            assert content == expected, (
                f"{name} drifted from the committed golden output; if "
                f"the change is intentional run `make golden-update`")
            digest = hashlib.sha256(content.encode("utf-8")).hexdigest()
            assert digest == pins[name]
        assert seen == set(ARTIFACT_NAMES), (
            "artifact recipe and pin index disagree — rerun "
            "`make golden-update`")
