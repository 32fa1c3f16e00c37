"""Smoke tests: every example script runs to completion.

Examples are the public face of the library; a refactor that breaks one
should fail the suite, not a user.  The scripts are collected by glob,
so a new example cannot skip the smoke.
"""

import glob
import os
import runpy
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXAMPLES = sorted(os.path.relpath(path, ROOT) for path in
                  glob.glob(os.path.join(ROOT, "examples", "*.py")))


@pytest.mark.parametrize("path", EXAMPLES)
def test_example_runs(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(os.path.join(ROOT, path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 200  # produced a real report, not a stub
