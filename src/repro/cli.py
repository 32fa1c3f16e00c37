"""Command-line interface (documented in detail in ``docs/cli.md``).

::

    python -m repro.cli run --vendor lg --country uk --scenario linear \
        --phase LIn-OIn --out capture.pcap
    python -m repro.cli audit capture.pcap
    python -m repro.cli grid --jobs 4 --filter vendor=lg --filter country=uk
    python -m repro.cli grid --jobs 4 --filter vendor=roku,vizio
    python -m repro.cli scorecard --jobs 4 --vendors samsung,lg
    python -m repro.cli report --jobs 4 > EXPERIMENTS.md
    python -m repro.cli table 2
    python -m repro.cli fleet --households 200 --jobs 8 \
        --mix vendor=roku:1,vizio:1,lg:2,samsung:2
    python -m repro.cli serve --households 200 --jobs 8 \
        --checkpoint-dir ck/ --resume
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .analysis import AcrDomainAuditor, AuditPipeline
from .reporting import render_table
from .testbed import (Country, ExperimentSpec, Phase, Scenario, Vendor,
                      run_experiment, validate)

_PHASES = {phase.value: phase for phase in Phase}


def _usage_error(message) -> int:
    """Report bad input as one ``error:`` line on stderr; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _add_grid_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--jobs", type=int, default=1,
                     help="worker processes for cell execution "
                          "(1 = serial; results are identical)")
    cmd.add_argument("--seed", type=int, default=7)


def _add_vendors_option(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--vendors", default=None, metavar="NAME[,NAME...]",
        help="restrict vendor-specific findings to these vendors "
             f"(choose from {', '.join(v.value for v in Vendor)}; "
             "default: all registered vendors; 'samsung,lg' reproduces "
             "the pre-registry output byte for byte)")


def _parse_vendors(args) -> Optional[List[str]]:
    if not args.vendors:
        return None
    return [name.strip() for name in args.vendors.split(",")
            if name.strip()]


def _add_obs_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--dashboard", action="store_true",
                     help="live ANSI status frame on stderr (degrades "
                          "to plain progress lines when stderr is not "
                          "a TTY, NO_COLOR is set, or with --plain)")
    cmd.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write the run's metrics snapshot here as "
                          "JSONL (enables metrics collection)")


def _obs_start(args):
    """Enable the metrics registry when observability was asked for.

    Returns the live registry, or ``None`` — in which case the no-op
    singleton stays active and the run is byte-identical to one without
    these flags.
    """
    if not (getattr(args, "dashboard", False)
            or getattr(args, "metrics_out", None)):
        return None
    from .obs import enable
    return enable()


def _obs_write(args, registry, **meta) -> None:
    """Export --metrics-out (stable JSONL schema; see docs/cli.md)."""
    if registry is None or not args.metrics_out:
        return
    from .obs.metrics import write_metrics_jsonl
    write_metrics_jsonl(args.metrics_out, registry.snapshot(),
                        {"command": args.command, **meta})
    print(f"wrote {args.metrics_out}", file=sys.stderr)


def _obs_stop(registry) -> None:
    if registry is None:
        return
    from .obs import disable
    disable()


def _add_findings_option(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--findings-out", default=None, metavar="PATH",
        help="write the run's findings ledger here as schema-v1 JSONL "
             "(sorted, atomic, byte-identical across --jobs; compare "
             "two exports with `repro.cli findings diff`)")


def _write_findings(args, ledger, **meta) -> None:
    """Export --findings-out (stable JSONL schema; see docs/cli.md).

    ``meta`` deliberately never includes ``--jobs``: the export must be
    byte-identical however many workers produced the ledger.
    """
    if not getattr(args, "findings_out", None):
        return
    from .findings import write_findings_jsonl
    write_findings_jsonl(args.findings_out, ledger,
                         {"command": args.command, **meta})
    print(f"wrote {args.findings_out}", file=sys.stderr)


def _add_fault_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--faults", default=None, metavar="SITE:RATE[,..]",
        help="deterministic fault injection plan, e.g. "
             "'segment.drop:0.2,worker.crash:0.1' (bare SITE means "
             "rate 1.0; see docs/cli.md for the site list and "
             "recovery guarantees)")
    cmd.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for the fault plan's decision oracle (default 0); "
             "same plan + seed reproduces the exact same failures at "
             "any --jobs")


def _parse_faults(args):
    """``(plan, error_message)`` for the invocation's --faults flags."""
    from .faults import FaultPlan, FaultSpecError, NULL_PLAN
    spec = getattr(args, "faults", None)
    if not spec:
        return NULL_PLAN, None
    try:
        return FaultPlan.parse(spec, seed=args.fault_seed), None
    except FaultSpecError as exc:
        return None, str(exc)


def _add_cache_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--cache-dir", default=None,
                     help="result-cache directory "
                          "(default: $REPRO_CACHE_DIR or "
                          "~/.cache/repro-acr/grid)")
    cmd.add_argument("--no-cache", action="store_true",
                     help="always execute; neither read nor write "
                          "the cache")


def _open_cache(args):
    """The result cache an invocation asked for (shared grid/fleet).

    Returns ``(cache, error_message)``; the cache may be ``None`` both
    for ``--no-cache`` and for an unwritable default location.
    """
    from .experiments import grid as grid_mod
    if args.no_cache:
        return None, None
    if args.cache_dir:
        try:
            return grid_mod.ResultCache(args.cache_dir), None
        except OSError as exc:
            return None, f"cannot use cache dir {args.cache_dir}: {exc}"
    # Honors REPRO_CACHE_DIR / REPRO_NO_CACHE and degrades to no
    # caching when the default location is unwritable.
    return grid_mod.default_cache(), None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACR smart-TV tracking reproduction (IMC 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run one experiment cell")
    run_cmd.add_argument("--vendor", choices=[v.value for v in Vendor],
                         default="lg")
    run_cmd.add_argument("--country", choices=[c.value for c in Country],
                         default="uk")
    run_cmd.add_argument("--scenario",
                         choices=[s.value for s in Scenario],
                         default="linear")
    run_cmd.add_argument("--phase", choices=sorted(_PHASES),
                         default="LIn-OIn")
    run_cmd.add_argument("--seed", type=int, default=7)
    run_cmd.add_argument("--minutes", type=int, default=60,
                         help="experiment duration")
    run_cmd.add_argument("--out", default=None,
                         help="write the capture to this pcap path")

    audit_cmd = sub.add_parser("audit",
                               help="audit a pcap file for ACR traffic")
    audit_cmd.add_argument("pcap", help="path to a capture file")

    grid_cmd = sub.add_parser(
        "grid",
        help="run an experiment grid in parallel through the result "
             "cache")
    _add_grid_options(grid_cmd)
    grid_cmd.add_argument(
        "--filter", action="append", default=[], metavar="AXIS=VALUE[,..]",
        help="restrict the grid along one axis "
             "(vendor/country/scenario/phase); repeatable")
    grid_cmd.add_argument("--minutes", type=int, default=60,
                          help="simulated minutes per cell")
    grid_cmd.add_argument("--plain", action="store_true",
                          help="with --dashboard: plain progress lines "
                               "instead of the live frame")
    _add_obs_options(grid_cmd)
    _add_fault_options(grid_cmd)
    _add_cache_options(grid_cmd)

    fleet_cmd = sub.add_parser(
        "fleet",
        help="simulate and audit a population of households with "
             "streaming aggregation")
    fleet_cmd.add_argument("--households", type=int, default=100,
                           help="population size (default 100)")
    fleet_cmd.add_argument(
        "--mix", action="append", default=[],
        metavar="AXIS=VALUE:WEIGHT[,..]",
        help="population mix for one axis "
             "(vendor/country/phase/diary), e.g. "
             "vendor=lg:3,samsung:1; repeatable; unset axes keep the "
             "default mix")
    fleet_cmd.add_argument("--out", default=None,
                           help="also write the report to this path")
    fleet_cmd.add_argument("--plain", action="store_true",
                           help="plain per-shard progress lines (the "
                                "default without --dashboard; forces "
                                "the dashboard's line mode)")
    _add_obs_options(fleet_cmd)
    _add_fault_options(fleet_cmd)
    _add_findings_option(fleet_cmd)
    _add_grid_options(fleet_cmd)
    _add_cache_options(fleet_cmd)

    serve_cmd = sub.add_parser(
        "serve",
        help="stream a fleet through the audit service: out-of-order "
             "segment ingestion, bounded memory, checkpoint/resume; "
             "report byte-identical to `fleet --jobs 1`")
    serve_cmd.add_argument("--households", type=int, default=100,
                           help="population size (default 100)")
    serve_cmd.add_argument(
        "--mix", action="append", default=[],
        metavar="AXIS=VALUE:WEIGHT[,..]",
        help="population mix for one axis (same syntax as fleet)")
    serve_cmd.add_argument("--checkpoint-dir", default=None,
                           help="write periodic atomic snapshots here; "
                                "required for --resume")
    serve_cmd.add_argument("--resume", action="store_true",
                           help="restore the checkpoint in "
                                "--checkpoint-dir and continue (also "
                                "grows the fleet in place when "
                                "--households is larger)")
    serve_cmd.add_argument("--checkpoint-every", type=int, default=25,
                           metavar="N",
                           help="snapshot every N completed households "
                                "(default 25; 0 = only on exit)")
    serve_cmd.add_argument("--window", type=int, default=8,
                           help="max households audited concurrently — "
                                "the bounded-memory window (default 8)")
    serve_cmd.add_argument("--credits", type=int, default=4,
                           help="per-household segment credit window "
                                "(default 4)")
    serve_cmd.add_argument("--segments", type=int, default=6,
                           help="capture segments per household "
                                "(default 6)")
    serve_cmd.add_argument("--plain", action="store_true",
                           help="line-per-household progress instead of "
                                "the live status line (for logs/CI)")
    serve_cmd.add_argument("--out", default=None,
                           help="also write the report to this path")
    _add_obs_options(serve_cmd)
    _add_fault_options(serve_cmd)
    _add_findings_option(serve_cmd)
    _add_grid_options(serve_cmd)
    _add_cache_options(serve_cmd)

    scorecard_cmd = sub.add_parser(
        "scorecard",
        help="verify the paper findings (S1-S12) plus the extension-"
             "vendor findings (X1-X6); incremental over the grid cache")
    _add_grid_options(scorecard_cmd)
    _add_vendors_option(scorecard_cmd)
    _add_findings_option(scorecard_cmd)

    report_cmd = sub.add_parser(
        "report",
        help="print the EXPERIMENTS.md paper-vs-measured report; "
             "incremental over the grid cache")
    _add_grid_options(report_cmd)
    _add_vendors_option(report_cmd)

    table_cmd = sub.add_parser("table",
                               help="regenerate a paper table (2-5)")
    table_cmd.add_argument("number", type=int, choices=[2, 3, 4, 5])

    findings_cmd = sub.add_parser(
        "findings",
        help="work with --findings-out exports (schema-v1 JSONL)")
    findings_sub = findings_cmd.add_subparsers(dest="findings_command",
                                               required=True)
    diff_cmd = findings_sub.add_parser(
        "diff",
        help="compare two findings exports: new regressions, resolved "
             "findings, severity changes (exit 1 on regressions)")
    diff_cmd.add_argument("old", help="baseline findings JSONL")
    diff_cmd.add_argument("new", help="candidate findings JSONL")
    return parser


def _cmd_run(args) -> int:
    from .sim.clock import minutes as minutes_ns
    try:
        spec = ExperimentSpec(Vendor(args.vendor), Country(args.country),
                              Scenario(args.scenario), _PHASES[args.phase],
                              duration_ns=minutes_ns(args.minutes))
    except ValueError as exc:
        return _usage_error(exc)
    print(f"running {spec.label} ({args.minutes} simulated minutes, "
          f"seed {args.seed})...")
    result = run_experiment(spec, seed=args.seed)
    report = validate(result)
    print(f"captured {result.packet_count} packets "
          f"({len(result.pcap_bytes) / 1e6:.1f} MB); "
          f"validation: {'OK' if report.ok else report.failures}")
    if args.out:
        try:
            with open(args.out, "wb") as fileobj:
                fileobj.write(result.pcap_bytes)
        except OSError as exc:
            return _usage_error(exc)
        print(f"wrote {args.out}")
    else:
        _print_audit(AuditPipeline.from_result(result))
    return 0


def _print_audit(pipeline: AuditPipeline) -> None:
    auditor = AcrDomainAuditor()
    rows = []
    for finding in auditor.audit(pipeline):
        cadence = finding.periodicity
        rows.append([
            finding.domain,
            f"{pipeline.kilobytes_for(finding.domain):.1f}",
            f"{cadence.period_s:.1f}s" if cadence.period_s else "-",
            "yes" if finding.blocklist_listed else "no",
            "yes" if finding.validated else "no",
        ])
    if rows:
        print(render_table(
            ["ACR domain", "KB", "cadence", "blocklisted", "validated"],
            rows))
    else:
        print("no ACR candidate domains in capture")


def _cmd_audit(args) -> int:
    try:
        with open(args.pcap, "rb") as fileobj:
            raw = fileobj.read()
        # A PcapError, a malformed frame and a capture without a
        # private address to audit all raise ValueError.
        pipeline = AuditPipeline.from_pcap_bytes(raw)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    print(f"{len(pipeline.packets)} packets; contacted domains: "
          f"{', '.join(pipeline.contacted_domains)}")
    _print_audit(pipeline)
    return 0


def _cmd_grid(args) -> int:
    from .experiments import grid as grid_mod
    from .sim.clock import minutes as minutes_ns
    try:
        filters = grid_mod.parse_filters(args.filter)
        specs = grid_mod.enumerate_cells(
            filters, duration_ns=minutes_ns(args.minutes))
    except (grid_mod.GridFilterError, ValueError) as exc:
        return _usage_error(exc)
    if not specs:
        print("no cells match the filters", file=sys.stderr)
        return 1
    cache, cache_error = _open_cache(args)
    if cache_error:
        return _usage_error(cache_error)
    faults, fault_error = _parse_faults(args)
    if fault_error:
        return _usage_error(fault_error)
    runner = grid_mod.GridRunner(seed=args.seed, cache=cache,
                                 jobs=args.jobs, faults=faults)
    registry = _obs_start(args)
    print(f"grid: {len(specs)} cells x {args.minutes} simulated minutes, "
          f"seed {args.seed}, {args.jobs} job(s), "
          f"cache {'off' if cache is None else cache.root}")

    dashboard = None
    if args.dashboard:
        from .obs import Dashboard
        dashboard = Dashboard("grid", len(specs), unit="cells",
                              plain=args.plain, registry=registry)
    counts = {"done": 0, "executed": 0, "cached": 0}

    def progress(spec, record):
        counts["done"] += 1
        counts["cached" if record.from_cache else "executed"] += 1
        if dashboard is not None:
            # The dashboard replaces the per-cell log lines.
            dashboard.update(counts["done"],
                             executed=counts["executed"],
                             cached=counts["cached"])
            return
        origin = "cached" if record.from_cache \
            else f"ran {record.elapsed_s:5.1f}s"
        print(f"  [{origin:>10}] {spec.label}: "
              f"{record.packet_count} packets")

    started = time.perf_counter()
    try:
        records = runner.run(specs, progress=progress)
        elapsed = time.perf_counter() - started
        if dashboard is not None:
            dashboard.finish(note=f"done in {elapsed:.1f}s")
        _obs_write(args, registry, cells=len(specs), seed=args.seed,
                   jobs=args.jobs)
    finally:
        _obs_stop(registry)
    executed = sum(not record.from_cache for record in records)
    print(render_table(
        ["cells", "executed", "cache hits", "packets", "pcap MB",
         "wall s"],
        [[len(records), executed, len(records) - executed,
          sum(record.packet_count for record in records),
          f"{sum(record.pcap_len for record in records) / 1e6:.1f}",
          f"{elapsed:.2f}"]],
        title="grid summary"))
    return 0


def _cmd_fleet(args) -> int:
    from . import fleet as fleet_mod
    try:
        mixes = fleet_mod.parse_mix(args.mix)
        population = fleet_mod.PopulationSpec(
            args.households, seed=args.seed, mixes=mixes)
    except (fleet_mod.MixError, ValueError) as exc:
        return _usage_error(exc)
    cache, cache_error = _open_cache(args)
    if cache_error:
        return _usage_error(cache_error)
    faults, fault_error = _parse_faults(args)
    if fault_error:
        return _usage_error(fault_error)
    runner = fleet_mod.FleetRunner(cache=cache, jobs=args.jobs,
                                   faults=faults)
    registry = _obs_start(args)
    # Progress and timing go to stderr: the stdout report is a pure
    # function of (population, seed) — byte-identical across --jobs.
    print(f"fleet: {args.households} households, seed {args.seed}, "
          f"{args.jobs} job(s), "
          f"cache {'off' if cache is None else cache.root}",
          file=sys.stderr)

    dashboard = None
    if args.dashboard:
        from .obs import Dashboard
        dashboard = Dashboard("fleet", args.households,
                              unit="households", plain=args.plain,
                              registry=registry)

    def progress(done, total, executed, cached):
        print(f"  shard {done}/{total} "
              f"({executed} executed, {cached} cached)",
              file=sys.stderr)

    def observer(done, total, executed, cached, aggregate):
        dashboard.update(aggregate.households, executed=executed,
                         cached=cached, aggregate=aggregate)

    try:
        result = runner.run(
            population,
            progress=None if dashboard is not None else progress,
            observer=observer if dashboard is not None else None)
        if dashboard is not None:
            dashboard.finish(note=f"done in {result.elapsed_s:.1f}s")
        _obs_write(args, registry, households=args.households,
                   seed=args.seed, jobs=args.jobs)
    finally:
        _obs_stop(registry)
    print(f"fleet done in {result.elapsed_s:.1f}s "
          f"({result.executed} executed, {result.cached} cached)",
          file=sys.stderr)
    report = fleet_mod.render_population_report(result.aggregate,
                                                population)
    print(report, end="")
    if args.out:
        from .util import atomic_write_text
        atomic_write_text(args.out, report)
        print(f"wrote {args.out}", file=sys.stderr)
    _write_findings(args, result.aggregate.findings,
                    households=args.households, seed=args.seed)
    return 0


def _cmd_serve(args) -> int:
    import signal

    from . import fleet as fleet_mod
    from . import service as service_mod
    faults, fault_error = _parse_faults(args)
    if fault_error:
        return _usage_error(fault_error)
    try:
        mixes = fleet_mod.parse_mix(args.mix)
        population = fleet_mod.PopulationSpec(
            args.households, seed=args.seed, mixes=mixes)
        config = service_mod.ServiceConfig(
            window=args.window, credits=args.credits,
            segments=args.segments,
            checkpoint_every=args.checkpoint_every,
            faults=faults)
    except (fleet_mod.MixError, ValueError) as exc:
        return _usage_error(exc)
    if args.resume and not args.checkpoint_dir:
        return _usage_error("--resume needs --checkpoint-dir")
    cache, cache_error = _open_cache(args)
    if cache_error:
        return _usage_error(cache_error)
    registry = _obs_start(args)
    print(f"serve: {args.households} households, seed {args.seed}, "
          f"window {args.window}, {args.jobs} job(s), "
          f"cache {'off' if cache is None else cache.root}, "
          f"checkpoints "
          f"{'off' if not args.checkpoint_dir else args.checkpoint_dir}",
          file=sys.stderr)

    dashboard = None
    if args.dashboard:
        from .obs import Dashboard
        dashboard = Dashboard("serve", args.households,
                              unit="households", plain=args.plain,
                              registry=registry)

    # A SIGTERM/SIGINT requests a graceful stop: the service writes a
    # final checkpoint between events, then unwinds.
    stop = {"requested": False}

    def _request_stop(signum, frame):
        stop["requested"] = True

    previous = [signal.signal(signal.SIGTERM, _request_stop),
                signal.signal(signal.SIGINT, _request_stop)]

    def progress(done, total, executed, cached):
        line = (f"  {done}/{total} households folded "
                f"({executed} executed, {cached} cached)")
        if args.plain:
            print(line, file=sys.stderr)
        else:
            print(f"\r{line}", end="", file=sys.stderr, flush=True)

    def observer(done, total, executed, cached, state):
        dashboard.update(done, executed=executed, cached=cached,
                         aggregate=state)

    try:
        result = service_mod.serve_fleet(
            population, cache=cache, config=config, jobs=args.jobs,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            progress=None if dashboard is not None else progress,
            observer=observer if dashboard is not None else None,
            stop_check=lambda: stop["requested"])
        if dashboard is not None:
            dashboard.finish(note=f"done in {result.elapsed_s:.1f}s")
        _obs_write(args, registry, households=args.households,
                   seed=args.seed, jobs=args.jobs)
    except service_mod.ServiceStopped as exc:
        if not args.plain and dashboard is None:
            print(file=sys.stderr)
        print(f"interrupted: {exc}; checkpoint at {exc.checkpoint}",
              file=sys.stderr)
        return 3
    except service_mod.CheckpointError as exc:
        return _usage_error(exc)
    finally:
        signal.signal(signal.SIGTERM, previous[0])
        signal.signal(signal.SIGINT, previous[1])
        _obs_stop(registry)
    if not args.plain and dashboard is None:
        print(file=sys.stderr)
    print(f"serve done in {result.elapsed_s:.1f}s "
          f"({result.executed} executed, {result.cached} cached, "
          f"{result.resumed_households} resumed; "
          f"{result.segments_delivered} segments, "
          f"{result.refusals} refusals, peak "
          f"{result.peak_open_households} open households / "
          f"{result.peak_tracked_flows} tracked flows)",
          file=sys.stderr)
    report = fleet_mod.render_population_report(result.state,
                                                population)
    print(report, end="")
    if args.out:
        from .util import atomic_write_text
        atomic_write_text(args.out, report)
        print(f"wrote {args.out}", file=sys.stderr)
    _write_findings(args, result.state.findings,
                    households=args.households, seed=args.seed)
    return 0


def _vendors_selection_error(args) -> Optional[str]:
    """A usage-error message for a bad ``--vendors``, else None.

    Only selection validation sits behind the exit-2 usage error; the
    actual simulation/evaluation runs outside it so an internal
    ValueError surfaces as a traceback, not a bogus usage error.
    """
    from .experiments.findings import selected_checks
    try:
        selected_checks(_parse_vendors(args))
    except ValueError as exc:
        return str(exc)
    return None


def _cmd_scorecard(args) -> int:
    from .experiments import run_all_checks
    from .experiments.findings import render_checks
    error = _vendors_selection_error(args)
    if error:
        return _usage_error(error)
    checks = run_all_checks(seed=args.seed, jobs=args.jobs,
                            vendors=_parse_vendors(args))
    sys.stdout.write(render_checks(checks))
    from .experiments.findings import ledger_from_checks
    vendors = _parse_vendors(args)
    _write_findings(args, ledger_from_checks(checks), seed=args.seed,
                    vendors=",".join(vendors) if vendors else "all")
    return 1 if any(not check.passed for check in checks) else 0


def _cmd_report(args) -> int:
    from .experiments.report import generate
    error = _vendors_selection_error(args)
    if error:
        return _usage_error(error)
    print(generate(seed=args.seed, jobs=args.jobs,
                   vendors=_parse_vendors(args)))
    return 0


def _cmd_findings(args) -> int:
    """``findings diff OLD NEW``: exit 0 clean, 1 regression, 2 usage."""
    from .findings import diff_records, read_findings_jsonl
    try:
        __, old_records = read_findings_jsonl(args.old)
        __, new_records = read_findings_jsonl(args.new)
    except OSError as exc:
        return _usage_error(exc)
    except ValueError as exc:
        return _usage_error(f"invalid findings file: {exc}")
    diff = diff_records(old_records, new_records)
    sys.stdout.write(diff.render(args.old, args.new))
    return 1 if diff.is_regression else 0


def _cmd_table(args) -> int:
    from .experiments import tables_volumes as tv_mod
    from .experiments.tables_volumes import SCENARIO_NAMES
    builder = {2: tv_mod.table2, 3: tv_mod.table3,
               4: tv_mod.table4, 5: tv_mod.table5}[args.number]
    table = builder()
    print(render_table(["Domain"] + SCENARIO_NAMES, table.rows(),
                       title=f"Table {args.number}"))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "audit": _cmd_audit,
    "grid": _cmd_grid,
    "fleet": _cmd_fleet,
    "serve": _cmd_serve,
    "scorecard": _cmd_scorecard,
    "report": _cmd_report,
    "table": _cmd_table,
    "findings": _cmd_findings,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
