#!/usr/bin/env python
"""Start-method, hash-seed and job-count invariance smoke for the fleet
outputs and the grid's stored captures.

Runs ``fleet --households N --jobs J --no-cache --findings-out`` six
ways: under the ``fork`` start method with ``PYTHONHASHSEED`` 0, 1 and
2, under ``spawn``, and forked at ``--jobs 1`` and ``--jobs 3``.  Forked
pool workers inherit the parent's warm assets (reference libraries and
their band indexes); spawned workers build their own.  Shards are runs
of one country's households, so at ``--jobs 3`` the default population
(two runs of one country, one of the other) puts one country's runs on
different workers.  Every report and every findings export must be
sha256-identical to the ``--jobs 1`` run.

Then runs ``grid --minutes 8`` over the Samsung and LG UK cells in both
opted-in phases into a fresh ``--cache-dir`` three ways: ``--jobs 1``,
and ``--jobs 2`` under ``fork`` and under ``spawn``.  The pool runs each
scenario's cells, both vendors and both phases, as one task, and each
worker stores its own cache entries, so a spawned worker must write its
cells under the parent's cache root and version: all three directories
must hold the same entry names and byte-identical ``.pcap`` files, with
metas equal but for ``elapsed_s``.

The start method is set by a ``python -c`` wrapper around
``repro.cli.main``, so the CLI itself needs no option for it.

Usage::

    PYTHONPATH=src python scripts/invariance_smoke.py [--households 32]
        [--jobs 2] [--seed 5] [--keep-dir PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

#: ``python -c`` body: ``argv[1]`` is the start method, the rest is the
#: CLI command line.
WRAPPER = ("import multiprocessing, sys\n"
           "multiprocessing.set_start_method(sys.argv.pop(1))\n"
           "from repro.cli import main\n"
           "sys.exit(main(sys.argv[1:]))\n")

#: (start method, PYTHONHASHSEED, --jobs) for each fleet run; ``None``
#: takes the smoke's ``--jobs``.
VARIANTS = (("fork", "0", 1), ("fork", "0", None), ("fork", "1", None),
            ("fork", "2", None), ("spawn", "0", None), ("fork", "0", 3))

#: The grid leg's cells (two vendors and two phases per scenario, so
#: every pool task spans vendors), and its (start method, jobs) runs.
GRID_ARGS = ["grid", "--minutes", "8", "--filter", "vendor=samsung,lg",
             "--filter", "country=uk", "--filter", "phase=LIn-OIn,LOut-OIn"]
GRID_VARIANTS = (("fork", 1), ("fork", 2), ("spawn", 2))


def sha256(path: str) -> str:
    with open(path, "rb") as fileobj:
        return hashlib.sha256(fileobj.read()).hexdigest()


def run_cli(method: str, hash_seed: str, arguments, report_path: str
            ) -> None:
    print(f"  $ PYTHONHASHSEED={hash_seed} [{method}] repro.cli "
          f"{' '.join(arguments)}")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    started = time.perf_counter()
    with open(report_path, "wb") as out:
        process = subprocess.run(
            [sys.executable, "-c", WRAPPER, method] + arguments,
            stdout=out, stderr=subprocess.PIPE, env=env)
    if process.returncode != 0:
        sys.stderr.write(process.stderr.decode(errors="replace"))
        raise SystemExit(f"FAIL: exit {process.returncode} under "
                         f"{method}, PYTHONHASHSEED={hash_seed}")
    print(f"    done in {time.perf_counter() - started:.1f}s")


def cache_entries(root: str):
    """``{relative path: content}`` of a grid cache directory, with
    each meta's ``elapsed_s`` (wall time) dropped."""
    entries = {}
    for directory, __, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fileobj:
                content = fileobj.read()
            if name.endswith(".json"):
                meta = json.loads(content)
                meta.pop("elapsed_s", None)
                content = meta
            entries[os.path.relpath(path, root)] = content
    return entries


def check_grid(work: str, hash_seed: str) -> None:
    entries = []
    for method, jobs in GRID_VARIANTS:
        cache_dir = os.path.join(work, f"grid-{method}-jobs{jobs}")
        print(f"[grid] {method}, --jobs {jobs}")
        run_cli(method, hash_seed,
                GRID_ARGS + ["--jobs", str(jobs), "--cache-dir",
                             cache_dir],
                os.path.join(work, f"grid-{method}-jobs{jobs}.txt"))
        entries.append(cache_entries(cache_dir))
    pcaps = sorted(name for name in entries[0] if name.endswith(".pcap"))
    if not pcaps:
        raise SystemExit("FAIL: the grid stored no captures")
    for name in pcaps:
        print(f"  sha256 {hashlib.sha256(entries[0][name]).hexdigest()}"
              f"  {os.path.basename(name)}")
    for (method, jobs), found in zip(GRID_VARIANTS[1:], entries[1:]):
        if found != entries[0]:
            raise SystemExit(f"FAIL: the grid cache under {method} at "
                             f"--jobs {jobs} differs from --jobs 1")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--households", type=int, default=32)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--keep-dir", default=None,
                        help="work under this directory and keep it "
                             "(default: a temp dir, removed)")
    args = parser.parse_args()

    work = args.keep_dir or tempfile.mkdtemp(prefix="invariance-smoke-")
    os.makedirs(work, exist_ok=True)
    print(f"invariance smoke: {args.households} households, "
          f"{args.jobs} jobs, seed {args.seed}, work dir {work}")
    try:
        outputs = {"report": [], "findings": []}
        for number, (method, hash_seed, jobs) in enumerate(VARIANTS, 1):
            jobs = jobs or args.jobs
            name = f"{method}-hash{hash_seed}-jobs{jobs}"
            report = os.path.join(work, f"report-{name}.txt")
            findings = os.path.join(work, f"findings-{name}.jsonl")
            print(f"[{number}/{len(VARIANTS)}] {method}, "
                  f"PYTHONHASHSEED={hash_seed}, --jobs {jobs}")
            run_cli(method, hash_seed,
                    ["fleet", "--households", str(args.households),
                     "--jobs", str(jobs), "--seed", str(args.seed),
                     "--no-cache", "--findings-out", findings],
                    report)
            outputs["report"].append(report)
            outputs["findings"].append(findings)

        for kind, paths in outputs.items():
            digests = {path: sha256(path) for path in paths}
            for path, digest in digests.items():
                print(f"  sha256 {digest}  {os.path.basename(path)}")
            if len(set(digests.values())) != 1:
                raise SystemExit(f"FAIL: the {kind} differs from the "
                                 f"--jobs 1 run")
        print("OK: report and findings export are job-count, "
              "start-method and hash-seed invariant")

        check_grid(work, "0")
        print("OK: the grid stores the same cache entries at any job "
              "count and start method")
        return 0
    finally:
        if not args.keep_dir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
