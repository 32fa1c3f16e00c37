#!/usr/bin/env python
"""Findings-export invariance smoke: jobs 1 vs jobs N, checked + diffed.

Drives the real CLI end to end and pins the findings contract:

1. ``fleet --jobs 1 --findings-out`` under a lossy fault plan with an
   extension vendor in the mix — so the export carries genuine ``DEG``
   (quarantined records) and ``OPTOUT`` (opted-out households still
   uploading) findings, not just an empty ledger;
2. the same fleet at ``--jobs N`` — both findings exports and both
   reports must be sha256-identical (the ledger merge is associative
   and the export canonical, so worker count cannot show);
3. ``scripts/check_findings.py`` must pass on the export (schema v1);
4. ``repro.cli findings diff`` of the two exports must report zero
   changes and exit 0.

Before simulating anything the smoke derives its population: when no
household in it can carry an ``OPTOUT`` finding (an opted-out
household on a vendor that downsamples on opt-out), it exits 2 naming
the smallest ``--households`` that has one (17 at seed 7).

Usage::

    PYTHONPATH=src python scripts/findings_smoke.py [--households 24]
        [--jobs 8] [--keep-dir PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.fleet import PopulationSpec, parse_mix  # noqa: E402
from repro.tv import vendors  # noqa: E402

#: Lossy decode-layer plan: some captures arrive truncated or with
#: corrupt record headers, so the salvage path quarantines records and
#: the export carries DEG findings.
FAULT_PLAN = "pcap.truncate:0.2,pcap.corrupt:0.2"

#: Roku's contract downsamples (never silences) on opt-out, so the
#: default phase mix's opted-out households yield OPTOUT findings.
MIX = "vendor=roku:1,lg:1,samsung:1"


def first_optout_carrier(seed: int) -> int:
    """Index of the population's first household that can carry an
    ``OPTOUT`` finding: opted out, on a vendor whose contract keeps
    uploading (downsampled) after opt-out.  Households are derived one
    by one, so the index does not depend on the population size."""
    population = PopulationSpec(1, seed, parse_mix([MIX]))
    for index in itertools.count():
        household = population.household(index)
        if (not household.phase.opted_in
                and vendors.get(household.vendor.value).contract.optout
                == vendors.OPTOUT_DOWNSAMPLE):
            return index


def sha256(path: str) -> str:
    with open(path, "rb") as fileobj:
        return hashlib.sha256(fileobj.read()).hexdigest()


def run_cli(arguments, out_path, expect_exit=0):
    print(f"  $ repro.cli {' '.join(arguments)}")
    started = time.perf_counter()
    with open(out_path, "wb") as out:
        process = subprocess.run(
            [sys.executable, "-m", "repro.cli"] + arguments,
            stdout=out, stderr=subprocess.PIPE)
    if process.returncode != expect_exit:
        sys.stderr.write(process.stderr.decode(errors="replace"))
        raise SystemExit(
            f"FAIL: exit {process.returncode} (expected {expect_exit}) "
            f"for: {' '.join(arguments)}")
    print(f"    done in {time.perf_counter() - started:.1f}s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--households", type=int, default=24)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--keep-dir", default=None,
                        help="work under this directory and keep it "
                             "(default: a temp dir, removed)")
    args = parser.parse_args()

    first = first_optout_carrier(args.seed)
    if first >= args.households:
        print(f"error: no household of {args.households} at seed "
              f"{args.seed} can carry an OPTOUT finding (the first is "
              f"household {first}); run with --households {first + 1} "
              f"or more", file=sys.stderr)
        return 2

    work = args.keep_dir or tempfile.mkdtemp(prefix="findings-smoke-")
    os.makedirs(work, exist_ok=True)
    print(f"findings smoke: {args.households} households, "
          f"{args.jobs} jobs, work dir {work}")

    def out(name):
        return os.path.join(work, name)

    scripts_dir = os.path.dirname(os.path.abspath(__file__))
    common = ["--households", str(args.households),
              "--seed", str(args.seed), "--mix", MIX,
              "--faults", FAULT_PLAN, "--no-cache"]
    try:
        print("[1/4] serial fleet with findings export")
        run_cli(["fleet"] + common
                + ["--jobs", "1",
                   "--findings-out", out("findings-jobs1.jsonl")],
                out("report-jobs1.txt"))
        print(f"[2/4] fan-out fleet (--jobs {args.jobs})")
        run_cli(["fleet"] + common
                + ["--jobs", str(args.jobs),
                   "--findings-out", out("findings-jobsN.jsonl")],
                out("report-jobsN.txt"))

        for kind in ("report", "findings"):
            digests = {name: sha256(out(name))
                       for name in (f"{kind}-jobs1."
                                    f"{'txt' if kind == 'report' else 'jsonl'}",
                                    f"{kind}-jobsN."
                                    f"{'txt' if kind == 'report' else 'jsonl'}")}
            for name, digest in sorted(digests.items()):
                print(f"  sha256 {digest}  {name}")
            if len(set(digests.values())) != 1:
                raise SystemExit(
                    f"FAIL: {kind} differs between --jobs 1 and "
                    f"--jobs {args.jobs}")

        with open(out("findings-jobs1.jsonl"), encoding="utf-8") as f:
            body = f.read()
        for code in ('"code": "DEG"', '"code": "OPTOUT"'):
            if code not in body:
                raise SystemExit(
                    f"FAIL: export carries no {code} record — the "
                    f"smoke must exercise real findings, not an empty "
                    f"ledger")

        print("[3/4] schema check")
        checker = os.path.join(scripts_dir, "check_findings.py")
        process = subprocess.run(
            [sys.executable, checker, out("findings-jobs1.jsonl")])
        if process.returncode != 0:
            raise SystemExit("FAIL: schema check rejected the export")

        print("[4/4] self-diff must report zero changes")
        run_cli(["findings", "diff", out("findings-jobs1.jsonl"),
                 out("findings-jobsN.jsonl")], out("diff.txt"))
        with open(out("diff.txt"), encoding="utf-8") as fileobj:
            diff_text = fileobj.read()
        if "no changes" not in diff_text:
            raise SystemExit(f"FAIL: self-diff found changes:\n"
                             f"{diff_text}")
        print("OK: findings exports are jobs-invariant, schema-valid, "
              "and self-diff clean")
        return 0
    finally:
        if not args.keep_dir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
