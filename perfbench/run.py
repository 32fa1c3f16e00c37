"""Run one benchmark workload; print its metrics, last line one JSON object.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-cold --seed 3 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics (tracing off): ``setup_s``
(CPU seconds spent importing ``repro`` and running ``warm_assets`` for
uk and us), ``ops_per_cpu_s`` (households or cells per CPU second of the
process tree in the body, median over the iterations that fit in
``--seconds``) and ``peak_rss_mb``.  CPU time, not wall time: on a
shared virtual machine the hypervisor steals a varying share of wall
time, which swamped every wall-clock figure.  Wall-clock figures are
printed and stored beside them.  ``--trace 1``
walks the same steps serially with every layer boundary wrapped in a
span, and reports the per-layer table.  Every run checks the program's
output and stores a result file with its provenance under
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden", "golden.json")
OUT = os.path.join(ROOT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOAD_NAMES = ("fleet-cold", "fleet-warm", "serve-warm",
                  "scorecard-cold")

#: End-to-end metrics (tracing off) and their units.
END_TO_END = {"setup_s": "s", "ops_per_cpu_s": "1/s", "peak_rss_mb": "MB"}

#: Per-layer metrics every workload's traced run reports, and their
#: units.  The full per-layer table, workload-specific layers included,
#: is printed and stored beside them.
PER_LAYER = {
    "assets.reflib_s.uk": "s", "assets.reflib_s.us": "s",
    "assets.media_ms": "ms", "acr.backend_setup_ms": "ms",
    "cache.load_ms": "ms", "analysis.decode_ms": "ms",
    "analysis.decode_pkts_per_s": "1/s", "report.render_ms": "ms",
    "trace.body_s": "s", "trace.overhead_ratio": "ratio",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def bench_version() -> str:
    """Digest of the benchmark's own sources: results from different
    benchmark code are not comparable."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(HERE)):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), "rb") as fileobj:
                digest.update(name.encode() + fileobj.read())
    return digest.hexdigest()[:16]


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of every child it
    has waited for (pool workers, once their pool has shut down).  Time
    the hypervisor steals from the machine is not in it."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest pool worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def isolate(work: str) -> None:
    """Keep every file the run writes inside the checkout."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work, "default-cache")
    for variable in ("REPRO_NO_CACHE", "REPRO_CODE_VERSION"):
        os.environ.pop(variable, None)
    sys.path.insert(0, SRC)


def measure_e2e(workload, seconds: float, tally) -> Dict[str, object]:
    """Body iterations until ``seconds`` have passed (at least one)."""
    cpu_rates: List[float] = []
    wall_rates: List[float] = []
    deadline = time.perf_counter() + seconds
    while not cpu_rates or time.perf_counter() < deadline:
        workload.fresh()
        cpu_started = cpu_seconds()
        elapsed, __ = tally.attempt(workload.ops, workload.body,
                                    workload.check)
        cpu_rates.append(workload.ops / (cpu_seconds() - cpu_started))
        wall_rates.append(workload.ops / elapsed)
    return {"ops_per_cpu_s": statistics.median(cpu_rates),
            "ops_per_s": statistics.median(wall_rates),
            "iteration_ops_per_cpu_s": cpu_rates,
            "iteration_ops_per_s": wall_rates}


def measure_trace(workload, tally, setup_tracer) -> Dict[str, object]:
    """The serial walk traced, between two untraced walks whose mean is
    the base of ``trace.overhead_ratio`` (so first-use costs and drift
    do not bias it)."""
    from repro import obs
    from spans import Tracer, percentile
    from workloads import COUNTRIES, trace_targets

    def untraced_walk() -> float:
        workload.fresh()
        elapsed, __ = tally.attempt(workload.ops, workload.walk,
                                    workload.check)
        return elapsed

    before = untraced_walk()
    workload.fresh()
    tracer = Tracer()

    def traced_walk():
        with tracer.wrapping(trace_targets()), tracer.span("body"):
            return workload.walk(tracer)

    registry = obs.enable()
    try:
        tally.attempt(workload.ops, traced_walk, workload.check)
    finally:
        obs.disable()
    untraced = (before + untraced_walk()) / 2
    for layer in workload.layers:
        if not tracer.samples(layer):
            tally.fail(0, f"traced walk produced no {layer!r} span")

    def p50(source, name: str, scale: float = 1e3) -> float:
        samples = source.samples(name)
        return percentile(samples, 50.0) * scale if samples else 0.0

    body_s = tracer.total("body")
    decode_s = tracer.total("analysis.decode")
    metrics = {
        "assets.media_ms": 1e3 * sum(
            setup_tracer.total(name) for name in setup_tracer.layers
            if name.startswith("assets.media.")),
        "acr.backend_setup_ms": p50(setup_tracer, "acr.backend_setup"),
        "cache.load_ms": p50(tracer, "cache.load"),
        "analysis.decode_ms": p50(tracer, "analysis.decode"),
        "analysis.decode_pkts_per_s":
            tracer.counters.get("analysis.decoded_packets", 0) / decode_s
            if decode_s else 0.0,
        "report.render_ms": tracer.total("report.render") * 1e3,
        "trace.body_s": body_s,
        "trace.overhead_ratio": body_s / untraced,
    }
    for country in COUNTRIES:
        metrics[f"assets.reflib_s.{country}"] = setup_tracer.total(
            f"assets.reflib.{country}")
    table = tracer.table("body")
    return {"metrics": metrics,
            "layers": table,
            "self_share_sum": sum(row["self_share"] for row in table),
            "setup_layers": setup_tracer.table("setup"),
            "derived": derived(tracer, workload),
            "obs_counters": registry.snapshot()["counters"],
            "untraced_body_s": untraced}


def derived(tracer, workload) -> Dict[str, float]:
    """Ratios and counts for the layer table, named as in the README."""
    from spans import percentile

    def p50(name: str, samples=None, scale: float = 1e3):
        samples = samples if samples is not None else tracer.samples(name)
        return percentile(samples, 50.0) * scale if samples else None

    from repro.testbed import assets
    from workloads import COUNTRIES

    counters = tracer.counters
    figures = {f"assets.reflib_entries.{country}":
               len(assets.reference_library(country, 0))
               for country in COUNTRIES}
    figures.update({
        "acr.batches": counters.get("acr.batches"),
        "acr.recognised_ratio":
            counters["acr.recognised"] / counters["acr.batches"]
            if counters.get("acr.batches") else None,
        "testbed.session_ms": p50("testbed.session"),
        "testbed.session_self_ms": p50(
            "", tracer.layers["testbed.session"].self_times)
            if "testbed.session" in tracer.layers else None,
        "testbed.cell_ms": p50("testbed.cell"),
        "testbed.validate_ms": p50("testbed.validate"),
        "testbed.packets": counters.get("testbed.packets"),
        "testbed.pcap_mb": counters["testbed.pcap_bytes"] / 1e6
            if "testbed.pcap_bytes" in counters else None,
        "cache.store_ms": p50("cache.store"),
        "cache.hit_ratio":
            counters.get("cache.hits", 0) / len(tracer.samples("cache.load"))
            if tracer.samples("cache.load") else None,
        "cache.stored_mb": counters["cache.stored_bytes"] / 1e6
            if "cache.stored_bytes" in counters else None,
        "service.split_ms": p50("service.split"),
        "service.ingest_ms": p50("service.ingest"),
        "service.finalize_ms": p50("service.finalize"),
        "service.checkpoint_ms": p50("service.checkpoint"),
        "service.checkpoint_kb":
            counters["service.checkpoint_bytes"] / 1e3
            / len(tracer.samples("service.checkpoint"))
            if "service.checkpoint_bytes" in counters else None,
        "fleet.summarize_ms": p50("fleet.summarize"),
        "fleet.fold_us": p50("fleet.fold", scale=1e6),
        "fleet.render_ms": tracer.total("report.render") * 1e3
            if workload.name != "scorecard-cold" else None,
        "experiments.prefetch_s": tracer.total("experiments.prefetch")
            if "experiments.prefetch" in tracer.layers else None,
    })
    for name in tracer.layers:
        if name.startswith("experiments.check."):
            code = name.rsplit(".", 1)[1]
            figures[f"experiments.check_ms.{code}"] = \
                tracer.total(name) * 1e3
    figures.update(workload.layer_metrics(tracer))
    return {name: value for name, value in figures.items()
            if value is not None}


def print_report(record: Dict[str, object]) -> None:
    """The human-readable part of stdout (everything but the last line)."""
    prov = record["provenance"]
    print(f"# perfbench {prov['workload']} seed={prov['seed']} "
          f"jobs={prov['jobs']} trace={prov['trace']} "
          f"code={prov['code_version']} nproc={prov['nproc']}")
    for name, entry in record["result"]["metrics"].items():
        print(f"{name:32s} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in record.get("wall", {}).items():
        print(f"{'wall.' + name:32s} {value:>14.6g} (wall clock)")
    trace = record.get("trace")
    if trace:
        print(f"# layer table: traced body "
              f"{trace['metrics']['trace.body_s']:.3f} s, "
              f"self shares sum {trace['self_share_sum']:.4f}")
        print(f"{'layer':28s} {'n':>6s} {'p50_ms':>10s} {'tail':>16s} "
              f"{'total_ms':>11s} {'self_ms':>11s} {'self%':>7s}")
        for row in trace["layers"]:
            tail = next((f"{key}={row[key]:.3f}" for key in row
                         if key.startswith("p") and key != "p50"), "-")
            print(f"{row['layer']:28s} {row['n']:>6d} "
                  f"{row.get('p50', 0.0):>10.3f} {tail:>16s} "
                  f"{row['total_ms']:>11.1f} {row['self_ms']:>11.1f} "
                  f"{100 * row['self_share']:>6.2f}%")
        print("# set-up layers")
        for row in trace["setup_layers"]:
            print(f"{row['layer']:28s} {row['n']:>6d} "
                  f"{row['total_ms']:>11.1f} ms")
        print("# derived")
        for name, value in trace["derived"].items():
            print(f"{name:32s} {value:>14.6g}")
        print("# obs counters (traced walk)")
        for name, value in trace["obs_counters"].items():
            print(f"{name:40s} {value}")
    result = record["result"]
    print(f"{'failed_ratio':32s} {record['failed_ratio']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}")


def run(args: argparse.Namespace, work: str) -> Dict[str, object]:
    started = time.perf_counter()
    cpu_started = cpu_seconds()
    import workloads
    from repro.experiments import grid
    setup_tracer = None
    if args.trace:
        from spans import Tracer
        from repro.testbed import assets
        setup_tracer = Tracer()
        with setup_tracer.wrapping(workloads.asset_targets()), \
                setup_tracer.span("setup"):
            grid.warm_assets(countries=workloads.COUNTRIES)
        # The backend build over the cached library, probed directly.
        with setup_tracer.wrapping([(assets, "fresh_backend",
                                     "acr.backend_setup")]):
            for __ in range(2):
                for vendor in workloads.SCORECARD_VENDORS:
                    for country in workloads.COUNTRIES:
                        assets.fresh_backend(vendor, country)
    else:
        grid.warm_assets(countries=workloads.COUNTRIES)
    setup_s = cpu_seconds() - cpu_started
    setup_wall_s = time.perf_counter() - started

    from tally import Tally
    nproc = len(os.sched_getaffinity(0))
    jobs = min(2, nproc)
    workload = workloads.make(args.workload, args.seed, jobs, work,
                              workloads.load_golden(GOLDEN))
    tally = Tally()
    try:
        workload.prepare()
    except Exception as exc:  # the checks below then fail every operation
        tally.fail(0, f"set-up: {type(exc).__name__}: {exc}")

    record: Dict[str, object] = {"failures": tally.failures}
    if args.trace:
        trace = measure_trace(workload, tally, setup_tracer)
        record["trace"] = trace
        metrics = {name: trace["metrics"][name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        e2e = measure_e2e(workload, args.seconds, tally)
        record["iterations"] = {
            "ops_per_cpu_s": e2e["iteration_ops_per_cpu_s"],
            "ops_per_s": e2e["iteration_ops_per_s"]}
        record["wall"] = {"setup_s": setup_wall_s,
                          "ops_per_s": e2e["ops_per_s"]}
        metrics = {"setup_s": setup_s,
                   "ops_per_cpu_s": e2e["ops_per_cpu_s"],
                   "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END
    record["provenance"] = dict(
        workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=args.seconds, code_version=grid.code_version(),
        bench_version=bench_version(),
        python=platform.python_version(), nproc=nproc,
        **workload.provenance())
    record["failed_ratio"] = tally.failed_ratio
    record["result"] = {
        "correct": tally.failed == 0 and not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return record


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    missing = [path for path in (os.path.join(SRC, "repro", "__init__.py"),
                                 GOLDEN) if not os.path.isfile(path)]
    if missing:
        print(f"error: not a checkout of the repository "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    work = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    isolate(work)
    try:
        record = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fileobj:
        json.dump(record, fileobj, indent=1, sort_keys=True)
    print_report(record)
    print(f"# result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
