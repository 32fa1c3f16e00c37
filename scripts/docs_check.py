"""Check that docs/cli.md documents the ``repro.cli`` surface, both ways.

Run via ``make docs-check``.  Three checks:

* each subcommand has its own ``### `name` `` heading;
* every ``--flag`` of every subcommand appears in the reference;
* every ``--flag`` the reference mentions exists on some subcommand.

So a new command or flag fails this check until it is documented, and
a removed one fails it until the reference stops describing it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, Set

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import build_parser  # noqa: E402

#: A long option as written in prose or code; the look-behind skips
#: link anchors such as ``#observability-flags--dashboard``.
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*")


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


def main() -> int:
    docs_path = os.path.join(REPO_ROOT, "docs", "cli.md")
    try:
        with open(docs_path, "r", encoding="utf-8") as fileobj:
            text = fileobj.read()
    except OSError as exc:
        print(f"docs-check: cannot read {docs_path}: {exc}")
        return 1
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
    for problem in problems:
        print(f"docs-check: {problem}")
    if problems:
        return 1
    print(f"docs-check: all {len(commands)} subcommands and "
          f"{len(flags)} flags documented ({', '.join(commands)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
