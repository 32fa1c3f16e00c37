"""Check that the docs match the code: the CLI surface, both ways, and
the source files they name.

Run via ``make docs-check``.  Four checks:

* each subcommand has its own ``### `name` `` heading in docs/cli.md;
* every ``--flag`` of every subcommand appears in the reference;
* every ``--flag`` the reference mentions exists on some subcommand;
* every ``*.py`` path in an inline code span of docs/architecture.md,
  docs/cli.md or README.md exists at the repo root or under
  ``src/repro/``.

So a new command or flag fails this check until it is documented, and
a removed command, flag or module fails it until the docs stop
describing it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, Set

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.join(REPO_ROOT, "src", "repro")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import build_parser  # noqa: E402

#: A long option as written in prose or code; the look-behind skips
#: link anchors such as ``#observability-flags--dashboard``.
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*")

#: An inline code span on one line, and a ``.py`` path inside one (a
#: glob such as ``repro/*.py`` names no single file and is skipped).
CODE_SPAN = re.compile(r"`([^`\n]+)`")
PY_PATH = re.compile(r"(?<![\w./*-])(?:[\w-]+/)*[\w-]+\.py(?![\w*])")

#: The documents whose ``.py`` paths must resolve.
PATH_DOCS = ("docs/architecture.md", "docs/cli.md", "README.md")


def _subparsers(parser: argparse.ArgumentParser
                ) -> Dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def cli_subcommands() -> list:
    commands = sorted(_subparsers(build_parser()))
    if not commands:
        raise SystemExit("repro.cli has no subparsers?")
    return commands


def cli_flags(parser=None, name: str = "") -> Dict[str, Set[str]]:
    """Every long option (``--help`` aside) -> the commands taking it,
    nested subcommands (``findings diff``) included."""
    flags: Dict[str, Set[str]] = {}
    for child, sub in _subparsers(parser or build_parser()).items():
        command = f"{name} {child}".strip()
        for flag, owners in cli_flags(sub, command).items():
            flags.setdefault(flag, set()).update(owners)
        for action in sub._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    flags.setdefault(option, set()).add(command)
    return flags


def stale_paths(name: str, text: str) -> list:
    """``doc:line: path`` for each ``.py`` path in an inline code span
    of ``text`` that exists neither at the repo root nor under
    ``src/repro/``."""
    stale = []
    for number, line in enumerate(text.splitlines(), 1):
        for span in CODE_SPAN.findall(line):
            for path in PY_PATH.findall(span):
                if not any(os.path.isfile(os.path.join(root, path))
                           for root in (REPO_ROOT, PACKAGE_ROOT)):
                    stale.append(f"{name}:{number}: {path}")
    return stale


def _read(name: str) -> str:
    with open(os.path.join(REPO_ROOT, name), "r",
              encoding="utf-8") as fileobj:
        return fileobj.read()


def main() -> int:
    try:
        docs = {name: _read(name) for name in PATH_DOCS}
    except OSError as exc:
        print(f"docs-check: cannot read {exc.filename}: {exc}")
        return 1
    text = docs["docs/cli.md"]
    commands, flags = cli_subcommands(), cli_flags()
    documented = set(FLAG.findall(text))
    problems = []
    missing = [command for command in commands
               if f"### `{command}`" not in text]
    if missing:
        problems.append(f"docs/cli.md is missing a '### `<name>`' "
                        f"section for: {', '.join(missing)}")
    undocumented = sorted(set(flags) - documented)
    if undocumented:
        problems.append("docs/cli.md never mentions: " + ", ".join(
            f"{flag} ({', '.join(sorted(flags[flag]))})"
            for flag in undocumented))
    unknown = sorted(documented - set(flags))
    if unknown:
        problems.append(f"docs/cli.md documents flags no subcommand "
                        f"accepts: {', '.join(unknown)}")
    stale = [entry for name, doc in docs.items()
             for entry in stale_paths(name, doc)]
    if stale:
        problems.append("the docs name .py files that do not exist: "
                        + ", ".join(stale))
    for problem in problems:
        print(f"docs-check: {problem}")
    if problems:
        return 1
    print(f"docs-check: all {len(commands)} subcommands and "
          f"{len(flags)} flags documented ({', '.join(commands)}); "
          f"every .py path in {', '.join(PATH_DOCS)} exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
