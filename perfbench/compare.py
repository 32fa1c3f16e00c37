"""Compare two benchmark result files, refusing incomparable ones.

Usage, from the root of a checkout::

    python3 perfbench/compare.py OLD.json NEW.json [--allow FIELD ...]

Result files are written by ``perfbench/run.py`` under
``.perfbench/results/``.  Two results are comparable only when their
provenance agrees: code and cache version, Python version, ``nproc``,
workload, seed, population sizes, ``jobs`` and the benchmark's own
version.  Any difference is refused (exit 2) unless that field is named
with ``--allow`` — comparing a parent commit against a change is
``--allow code_version --allow cache_version``.  Wall times come from
small shared machines, so compare ratios, not seconds across machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

#: Provenance fields that must match (``mixes``/``service`` included:
#: a different population shape is a different workload).
PROVENANCE_FIELDS = ("code_version", "cache_version", "bench_version",
                     "python", "nproc", "workload", "seed", "trace",
                     "seconds", "jobs", "households", "cells",
                     "ops_per_iteration", "population_seed",
                     "scorecard_seed", "mixes", "service")


def provenance_differences(old: Dict, new: Dict) -> List[str]:
    return [field for field in PROVENANCE_FIELDS
            if old.get(field) != new.get(field)]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--allow", action="append", default=[],
                        choices=PROVENANCE_FIELDS,
                        help="a provenance field allowed to differ")
    args = parser.parse_args(argv)
    records = []
    for path in (args.old, args.new):
        try:
            with open(path, "r", encoding="utf-8") as fileobj:
                records.append(json.load(fileobj))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    old, new = records
    refused = [field for field in provenance_differences(
        old["provenance"], new["provenance"]) if field not in args.allow]
    if refused:
        for field in refused:
            print(f"error: {field} differs: "
                  f"{old['provenance'].get(field)!r} vs "
                  f"{new['provenance'].get(field)!r}", file=sys.stderr)
        print("error: results are not comparable (use --allow FIELD to "
              "compare anyway)", file=sys.stderr)
        return 2
    old_metrics = old["result"]["metrics"]
    new_metrics = new["result"]["metrics"]
    for name in sorted(set(old_metrics) & set(new_metrics)):
        before = old_metrics[name]["value"]
        after = new_metrics[name]["value"]
        ratio = after / before if before else float("nan")
        print(f"{name:32s} {before:>14.6g} {after:>14.6g} "
              f"{ratio:>8.3f}x {new_metrics[name]['unit']}")
    for label, record in (("old", old), ("new", new)):
        result = record["result"]
        print(f"# {label}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
