"""Emit a ``BENCH_<n>.json`` trajectory point.

Two kinds of point:

* ``make bench-json`` measures the codec hot path (written to the
  git-ignored ``.benchmarks/bench-json.json``, beside the committed
  ``BENCH_5.json`` it can be compared with): the hot-path
  microbenches (object-vs-columnar decode, object-vs-capture-log
  encode, the strict record walk) plus a
  reduced-grid end-to-end measurement (one cell simulated cold, then
  decoded into an audit pipeline in one piece and in ``serve``'s six
  segments).  A future change that erodes a speedup shows up as a
  smaller ratio in its ``BENCH_<n+1>.json`` diff.
  The microbench ratios are also asserted as floors by
  ``benchmarks/bench_net_hotpath.py`` in the tier-1-adjacent bench
  suite.
* ``make bench-point`` (``--point``) folds the result files that
  ``perfbench/run.py`` leaves under ``.perfbench/results/`` into the
  next free ``BENCH_<n>.json``, never overwriting an existing point.
  Per workload it records the code and benchmark versions, ``nproc``,
  the seeds used, the median and quartiles of each end-to-end metric
  over the ``--trace 0`` seeds (at least :data:`MIN_SEEDS`), and the
  ``--trace 1`` layer table.  It refuses (exit 2) too few seeds, mixed
  versions or core counts, and any result with failed operations.

Wall times are machine-dependent; the *ratios* are what the trajectory
pins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import sys
import time
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where ``make bench-json`` writes: git-ignored, so a run never
#: rewrites a committed trajectory point.
DEFAULT_OUT = os.path.join(".benchmarks", "bench-json.json")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

#: Where ``perfbench/run.py`` stores its result files.
RESULTS_DIR = os.path.join(REPO_ROOT, ".perfbench", "results")

#: Trace-0 seeds a workload needs before its medians are committed.
MIN_SEEDS = 5

RESULT_NAME = re.compile(r"^[a-z-]+-seed\d+-trace[01]\.json$")
POINT_NAME = re.compile(r"^BENCH_(\d+)\.json$")

#: Provenance every result folded into one point must share.
SHARED_PROVENANCE = ("code_version", "bench_version", "nproc")


def _entry(slow_s: float, fast_s: float) -> dict:
    return {
        "seed_s": round(slow_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(slow_s / fast_s, 2) if fast_s else None,
    }


def microbenches() -> dict:
    from benchmarks.bench_net_hotpath import (measure_columnar,
                                              measure_encode,
                                              measure_pcap_load)
    columnar = measure_columnar()
    encode = measure_encode()
    return {
        "columnar_3000_packets": _entry(*columnar),
        "encode_3000_frames": _entry(*encode),
        "pcap_load_3000_packets_s": round(measure_pcap_load(), 6),
    }


def fold_spans(snapshot: dict) -> dict:
    """Reduce an obs snapshot to the BENCH-relevant breakdown: per-span
    count/total/mean wall ms plus the counters that explain them (memo
    hit rates, decode counts)."""
    spans = {}
    for name, entry in snapshot.get("histograms", {}).items():
        if not name.endswith(".wall_ms") or not entry["count"]:
            continue
        spans[name[:-len(".wall_ms")]] = {
            "count": entry["count"],
            "total_ms": round(entry["sum"], 3),
            "mean_ms": round(entry["sum"] / entry["count"], 3),
            "max_ms": round(entry["max"], 3),
        }
    return {"spans": spans,
            "counters": snapshot.get("counters", {})}


def end_to_end(minutes: int) -> dict:
    """One cold cell: simulate (capture-log encode) then audit (columnar
    decode), once in one piece and once cut into ``serve``'s default
    segment count and extended segment by segment, as ``serve`` decodes
    it.  Assets are warmed first so the numbers isolate the codec path
    the way the grid/fleet runners see it.  Runs under a live metrics
    registry so the span/counter breakdown (fingerprint memo
    hits, decoded packet counts, phase timings) lands in the JSON beside
    the stopwatch numbers."""
    from repro.analysis import AuditPipeline
    from repro.experiments.grid import warm_assets
    from repro.net.addresses import Ipv4Address
    from repro.obs.metrics import disable, enable
    from repro.service import ServiceConfig, split_pcap_bytes
    from repro.sim.clock import minutes as minutes_ns
    from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,
                               Vendor, run_experiment)

    spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.LINEAR,
                          Phase.LIN_OIN, duration_ns=minutes_ns(minutes))
    warm_assets([spec.country.value])
    registry = enable()
    try:
        started = time.perf_counter()
        with registry.span("bench.simulate"):
            result = run_experiment(spec, seed=7)
        encode_s = time.perf_counter() - started
        tv_ip = Ipv4Address.parse(result.tv_ip)
        started = time.perf_counter()
        with registry.span("bench.decode"):
            pipeline = AuditPipeline.from_pcap_bytes(result.pcap_bytes,
                                                     tv_ip)
        decode_s = time.perf_counter() - started
        chunks = split_pcap_bytes(result.pcap_bytes,
                                  ServiceConfig().segments)
        started = time.perf_counter()
        with registry.span("bench.decode_segments"):
            segmented = AuditPipeline.incremental(tv_ip)
            for chunk in chunks:
                segmented.extend_pcap_bytes(chunk)
        segments_s = time.perf_counter() - started
        domains = pipeline.acr_candidate_domains()
        if segmented.acr_candidate_domains() != domains:
            raise RuntimeError("segmented decode disagrees with the "
                               "one-piece decode")
        snapshot = registry.snapshot()
    finally:
        disable()
    return {
        "spec": spec.label,
        "simulated_minutes": minutes,
        "packets": result.packet_count,
        "pcap_bytes": len(result.pcap_bytes),
        "simulate_s": round(encode_s, 3),
        "audit_decode_s": round(decode_s, 6),
        "audit_decode_segments": len(chunks),
        "audit_decode_segments_s": round(segments_s, 6),
        "acr_domains": domains,
        "obs": fold_spans(snapshot),
    }


class PointError(ValueError):
    """The result files cannot make one committed point."""


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def fold_results(results_dir: str) -> dict:
    """One point from every ``perfbench/run.py`` result file in
    ``results_dir``; raises :class:`PointError` when they cannot make
    one."""
    try:
        names = sorted(name for name in os.listdir(results_dir)
                       if RESULT_NAME.match(name))
    except OSError as exc:
        raise PointError(f"cannot list {results_dir}: {exc}") from None
    if not names:
        raise PointError(f"no perfbench result files in {results_dir}")
    by_workload: Dict[str, Dict[int, Dict[int, dict]]] = {}
    for name in names:
        try:
            with open(os.path.join(results_dir, name), "r",
                      encoding="utf-8") as fileobj:
                record = json.load(fileobj)
            failed_ratio = record["failed_ratio"]
            prov = record["provenance"]
            runs = by_workload.setdefault(prov["workload"], {})
            runs.setdefault(prov["trace"], {})[prov["seed"]] = record
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise PointError(f"{name}: unreadable result file: "
                             f"{exc!r}") from None
        if failed_ratio > 0:
            raise PointError(f"{name}: failed_ratio {failed_ratio:g} > 0")
    records = [record for traces in by_workload.values()
               for runs in traces.values() for record in runs.values()]
    shared = {}
    for field in SHARED_PROVENANCE:
        values = {record["provenance"][field] for record in records}
        if len(values) > 1:
            raise PointError(f"mixed {field}: {sorted(values)}")
        shared[field] = values.pop()
    workloads = {}
    for workload, traces in sorted(by_workload.items()):
        runs, traced = traces.get(0, {}), traces.get(1, {})
        if len(runs) < MIN_SEEDS:
            raise PointError(
                f"{workload}: {len(runs)} trace-0 seed(s), need at "
                f"least {MIN_SEEDS}")
        if not traced:
            raise PointError(f"{workload}: no trace-1 result")
        metrics = {}
        for name, entry in runs[min(runs)]["result"]["metrics"].items():
            metrics[name] = dict(_quartiles(
                [record["result"]["metrics"][name]["value"]
                 for __, record in sorted(runs.items())]),
                unit=entry["unit"])
        trace_seed = min(traced)
        trace = traced[trace_seed]["trace"]
        workloads[workload] = dict(
            shared, seeds=sorted(runs), metrics=metrics,
            trace_seed=trace_seed,
            trace_body_s=trace["metrics"]["trace.body_s"],
            layers=[{key: row[key]
                     for key in ("layer", "n", "p50", "self_share")}
                    for row in trace["layers"]])
    return {"suite": "perfbench", "workloads": workloads}


def write_point(point: dict, directory: str) -> str:
    """Write ``point`` to the next free ``BENCH_<n>.json``."""
    taken = [int(match.group(1)) for name in os.listdir(directory)
             if (match := POINT_NAME.match(name))]
    path = os.path.join(directory, f"BENCH_{max(taken, default=0) + 1}"
                                   f".json")
    with open(path, "x", encoding="utf-8") as fileobj:
        fileobj.write(json.dumps(point, indent=2) + "\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(
        description="emit a BENCH_<n>.json trajectory point")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    parser.add_argument("--minutes", type=int, default=10,
                        help="simulated minutes for the end-to-end cell "
                             "(default 10; CI uses the default reduced "
                             "grid)")
    parser.add_argument("--skip-e2e", action="store_true",
                        help="microbenches only")
    parser.add_argument("--point", action="store_true",
                        help="fold the perfbench result files into the "
                             "next free BENCH_<n>.json instead")
    args = parser.parse_args()

    if args.point:
        try:
            path = write_point(fold_results(RESULTS_DIR), REPO_ROOT)
        except PointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {os.path.relpath(path)}", file=sys.stderr)
        return 0

    os.environ.setdefault("REPRO_NO_CACHE", "1")  # cold by construction
    report = {
        "suite": "net-hotpath",
        "python": platform.python_version(),
        # Wall times are from whatever ran the script — committed
        # trajectory points come from a 1-core CI-class container, so
        # compare the *ratios*, never absolute seconds.
        "hardware": {"machine": platform.machine(),
                     "cpu_count": os.cpu_count()},
        "microbench": microbenches(),
    }
    if not args.skip_e2e:
        report["end_to_end"] = end_to_end(args.minutes)

    payload = json.dumps(report, indent=2) + "\n"
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fileobj:
        fileobj.write(payload)
    print(payload, end="")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
