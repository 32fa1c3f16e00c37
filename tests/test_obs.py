"""Tests for the observability layer: metrics registry, snapshot
algebra, the ANSI dashboard, and the JSONL export surface.

The merge suite mirrors ``tests/test_fleet.py``'s FleetAggregate
discipline: snapshots folded through ``MetricsRegistry.absorb`` must
combine associatively and commutatively with an empty registry's
snapshot as the identity, which is what makes the exported totals
independent of ``--jobs``.
"""

import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings

from fuzz_inputs import NESTED_LINE, damaged_jsonl
from repro.fleet import FleetAggregate, FleetRunner, PopulationSpec
from repro.obs import (Dashboard, DashboardView, detect_plain,
                       render_frame, render_plain_line)
from repro.obs.metrics import (DEFAULT_BUCKETS_MS, NULL, MetricsRegistry,
                               disable, enable, get_registry,
                               metrics_enabled, scoped, snapshot_to_jsonl,
                               write_metrics_jsonl)

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts"))
from check_metrics import check_lines  # noqa: E402


def merge_snapshots(*snapshots):
    """``snapshots`` folded into a fresh registry through
    ``MetricsRegistry.absorb``, as a parent folds its workers'
    (``None`` entries are skipped)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.absorb(snapshot)
    return registry.snapshot()


def _summary(vendor, country, acr):
    return {
        "vendor": vendor, "country": country, "phase": "LIn-OIn",
        "diary": "binge", "opted_in": True, "packets": 100,
        "pcap_len": 8000,
        "acr_domains": ["eu-acr4.alphonso.tv"] if acr else [],
        "acr_bytes": 5000 if acr else 0,
        "acr_upload_bytes": 3000 if acr else 0,
        "acr_packets": 20 if acr else 0,
        "acr_bursts": 4 if acr else 0,
        "cadence_sum_ns": 0, "cadence_intervals": 0,
    }


def _aggregate():
    aggregate = FleetAggregate()
    for entry in (_summary("lg", "uk", True),
                  _summary("samsung", "us", False),
                  _summary("lg", "uk", False)):
        aggregate.fold(entry)
    return aggregate


def _registry(hits=6, misses=2, stored=2):
    registry = MetricsRegistry()
    registry.inc("cache.hit", hits)
    registry.inc("cache.miss", misses)
    registry.inc("cache.store", stored)
    return registry


class _FakeClock:
    def __init__(self, now_ns=0):
        self.now = now_ns


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.snapshot()["counters"] == {"a": 5}

    def test_gauge_set_overwrites_gauge_max_keeps_peak(self):
        registry = MetricsRegistry()
        registry.gauge_set("g", 9.0)
        registry.gauge_set("g", 3.0)
        registry.gauge_max("peak", 3.0)
        registry.gauge_max("peak", 9.0)
        registry.gauge_max("peak", 5.0)
        assert registry.snapshot()["gauges"] == {"g": 3.0, "peak": 9.0}

    def test_histogram_buckets_fixed_bounds(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.0, 1.5, 1e9):
            registry.observe("h", value)
        entry = registry.snapshot()["histograms"]["h"]
        assert entry["le"] == list(DEFAULT_BUCKETS_MS)
        # 0.5 and 1.0 land in (<=1], 1.5 in (<=2], 1e9 in the +inf tail.
        assert entry["counts"][0] == 2
        assert entry["counts"][1] == 1
        assert entry["counts"][-1] == 1
        assert entry["count"] == 4
        assert entry["min"] == 0.5 and entry["max"] == 1e9

    def test_span_records_wall_ms(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        entry = registry.snapshot()["histograms"]["work.wall_ms"]
        assert entry["count"] == 1
        assert entry["sum"] >= 0.0

    def test_span_records_virtual_time_from_clock(self):
        registry = MetricsRegistry()
        clock = _FakeClock(0)
        with registry.span("work", clock=clock):
            clock.now += 250_000_000  # 250 simulated ms
        entry = registry.snapshot()["histograms"]["work.sim_ms"]
        assert entry["count"] == 1
        assert entry["sum"] == pytest.approx(250.0)


class TestSnapshotAlgebra:
    def _snapshots(self):
        a = MetricsRegistry()
        a.inc("n", 2)
        a.gauge_max("peak", 5)
        a.observe("h", 1.5)
        b = MetricsRegistry()
        b.inc("n", 3)
        b.inc("other")
        b.gauge_max("peak", 9)
        b.observe("h", 90.0)
        c = MetricsRegistry()
        c.observe("h", 0.2)
        c.inc("n")
        return a.snapshot(), b.snapshot(), c.snapshot()

    def test_merge_is_commutative(self):
        a, b, __ = self._snapshots()
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_merge_is_associative(self):
        a, b, c = self._snapshots()
        assert merge_snapshots(merge_snapshots(a, b), c) \
            == merge_snapshots(a, merge_snapshots(b, c))

    def test_empty_snapshot_is_identity(self):
        a, __, __ = self._snapshots()
        assert merge_snapshots(a, merge_snapshots()) == a
        assert merge_snapshots(merge_snapshots(), a) == a

    def test_merge_rules(self):
        a, b, __ = self._snapshots()
        merged = merge_snapshots(a, b)
        assert merged["counters"] == {"n": 5, "other": 1}
        assert merged["gauges"] == {"peak": 9}
        entry = merged["histograms"]["h"]
        assert entry["count"] == 2
        assert entry["sum"] == pytest.approx(91.5)
        assert entry["min"] == 1.5 and entry["max"] == 90.0
        assert sum(entry["counts"]) == 2

    def test_merge_all_skips_none(self):
        a, b, __ = self._snapshots()
        assert merge_snapshots(None, a, None, b) == merge_snapshots(a, b)

    def test_mismatched_bucket_bounds_refused(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0, bounds=(1.0, 2.0))
        other = MetricsRegistry()
        other.observe("h", 1.0, bounds=(5.0, 6.0))
        with pytest.raises(ValueError, match="bucket bounds differ"):
            registry.absorb(other.snapshot())

    def test_absorb_none_is_a_noop(self):
        registry = MetricsRegistry()
        registry.inc("n")
        before = registry.snapshot()
        registry.absorb(None)
        assert registry.snapshot() == before


class TestActiveRegistry:
    def test_null_is_the_default_and_free(self):
        assert get_registry() is NULL
        assert not metrics_enabled()
        NULL.inc("anything")
        NULL.gauge_max("g", 1)
        NULL.observe("h", 1.0)
        with NULL.span("work"):
            pass
        assert NULL.snapshot() is None

    def test_enable_disable_roundtrip(self):
        registry = enable()
        try:
            assert get_registry() is registry
            assert metrics_enabled()
            get_registry().inc("n")
            assert registry.snapshot()["counters"] == {"n": 1}
        finally:
            disable()
        assert get_registry() is NULL

    def test_scoped_isolates_and_restores(self):
        outer = enable()
        try:
            outer.inc("outer")
            with scoped() as inner:
                get_registry().inc("inner")
                assert get_registry() is inner
            assert get_registry() is outer
            assert "inner" not in outer.snapshot()["counters"]
            assert inner.snapshot()["counters"] == {"inner": 1}
        finally:
            disable()

    def test_scoped_collect_false_yields_none(self):
        with scoped(False) as registry:
            assert registry is None
            assert get_registry() is NULL


class TestDetectPlain:
    def test_explicit_plain_wins(self):
        assert detect_plain(io.StringIO(), plain=True, environ={})

    def test_no_color(self):
        tty = _Tty()
        assert detect_plain(tty, environ={"NO_COLOR": "1"})
        assert not detect_plain(tty, environ={})

    def test_dumb_terminal(self):
        assert detect_plain(_Tty(), environ={"TERM": "dumb"})

    def test_non_tty_stream(self):
        assert detect_plain(io.StringIO(), environ={})


class _Tty(io.StringIO):
    def isatty(self):
        return True


GOLDEN_FRAME = "\n".join([
    "┌─ fleet ──────────────────────────────────────────────────────────────────────┐",
    "│ progress [################################----------] 3/4 households  75.0%  │",
    "│ executed 2   cached 1   elapsed    2.0s   rate   1.50/s                      │",
    "│ cache    [###############-----]  75.0% hit   (6 hit / 2 miss / 2 stored)     │",
    "│                                                                              │",
    "│ acr heat   uk   us                                                           │",
    "│ lg         ==                                                                │",
    "│ samsung         ..                                                           │",
    "│                                                                              │",
    "│ uploads  | +-@                                                             | │",
    "│                                                                              │",
    "│ checkpoint ck/0003                                                           │",
    "└──────────────────────────────────────────────────────────────────────────────┘",
])


def _view(**overrides):
    values = dict(title="fleet", unit="households", done=3, total=4,
                  executed=2, cached=1, elapsed_s=2.0,
                  snapshot=_registry().snapshot(),
                  aggregate=_aggregate(),
                  spark=[0.0, 10.0, 5.0, 20.0],
                  note="checkpoint ck/0003")
    values.update(overrides)
    return DashboardView(**values)


class TestRenderFrame:
    def test_golden_frame_bytes(self):
        assert render_frame(_view(), width=80, color=False) \
            == GOLDEN_FRAME

    def test_color_differs_only_by_escapes(self):
        colored = render_frame(_view(), width=80, color=True)
        stripped = colored.replace("\x1b[1m", "").replace("\x1b[0m", "")
        assert stripped == GOLDEN_FRAME

    def test_every_line_same_width(self):
        for line in render_frame(_view(), width=72).split("\n"):
            assert len(line) == 72

    def test_degenerate_view_renders(self):
        frame = render_frame(DashboardView("grid", "cells", 0, 0))
        assert "0/0 cells" in frame

    def test_columns_row_absent_without_decode_counters(self):
        # The golden frame above predates the columnar decode; frames
        # from runs that never touch it must not change.
        assert "columns" not in render_frame(_view(), width=80)

    def test_columns_row_without_arena_reports_decodes(self):
        registry = _registry()
        registry.inc("decode.columnar.packets", 5556)
        frame = render_frame(_view(snapshot=registry.snapshot()),
                             width=80, color=False)
        row = next(line for line in frame.splitlines()
                   if "columns" in line)
        assert row.strip("│ ") == "columns  5556 pkts decoded"

    def test_faults_row_absent_without_fault_counters(self):
        # Clean runs never show the faults meter, so every pre-existing
        # golden frame stays byte-identical.
        assert "faults" not in render_frame(_view(), width=80)

    def test_faults_row_renders_recovery_meter(self):
        registry = _registry()
        registry.inc("faults.injected.worker.crash", 4)
        registry.inc("faults.recovered.worker.crash", 3)
        registry.inc("faults.degraded.records", 2)
        frame = render_frame(_view(snapshot=registry.snapshot()),
                             width=80, color=False)
        assert ("│ faults   [###############-----] 3/4 recovered   "
                "2 degraded") in frame

    def test_plain_line_is_byte_stable(self):
        line = render_plain_line(_view())
        assert line == ("[fleet] 3/4 households (2 executed, 1 cached)"
                        " -- checkpoint ck/0003")
        assert line == render_plain_line(_view())

    def test_plain_line_has_no_timing(self):
        # Wall-clock data would make CI logs differ run to run.
        assert "2.0" not in render_plain_line(_view(note=None))
        assert "elapsed" not in render_plain_line(_view(note=None))


class TestDashboardWidget:
    def test_plain_mode_prints_each_changed_update(self):
        stream = io.StringIO()
        dashboard = Dashboard("fleet", 4, unit="households",
                              stream=stream, plain=True)
        dashboard.update(1, executed=1)
        dashboard.update(1, executed=1)  # unchanged -> deduped
        dashboard.update(2, executed=2)
        dashboard.finish()
        assert stream.getvalue().splitlines() == [
            "[fleet] 1/4 households (1 executed, 0 cached)",
            "[fleet] 2/4 households (2 executed, 0 cached)",
        ]

    def test_plain_output_is_deterministic(self):
        outputs = []
        for __ in range(2):
            stream = io.StringIO()
            dashboard = Dashboard("fleet", 2, unit="households",
                                  stream=stream, plain=True)
            dashboard.update(1)
            dashboard.update(2)
            dashboard.finish(note="done")
            outputs.append(stream.getvalue())
        assert outputs[0] == outputs[1]

    def test_non_tty_stream_degrades_to_plain(self):
        stream = io.StringIO()
        dashboard = Dashboard("grid", 2, unit="cells", stream=stream)
        assert dashboard.plain

    def test_live_mode_redraws_in_place(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "xterm")
        stream = _Tty()
        dashboard = Dashboard("fleet", 4, unit="households",
                              stream=stream, refresh_s=0.0)
        assert not dashboard.plain
        dashboard.update(1, aggregate=_aggregate())
        dashboard.update(2, aggregate=_aggregate())
        out = stream.getvalue()
        assert "┌" in out and "└" in out
        # The second frame moves the cursor up over the first.
        assert "\x1b[" in out and "F┌" in out.replace("\x1b[1m", "")

    def test_aggregate_drives_upload_sparkline(self):
        stream = io.StringIO()
        dashboard = Dashboard("fleet", 4, unit="households",
                              stream=stream, plain=True)
        dashboard.update(1, aggregate=_aggregate())
        assert list(dashboard._spark.values()) == [3000]
        dashboard.update(2, aggregate=_aggregate())
        # Sparkline samples are per-update deltas of the running total.
        assert list(dashboard._spark.values()) == [3000, 0]


class TestAcrMemoCounters:
    def test_capture_state_counts_memo_hit_and_miss(self):
        from repro.acr.fingerprint import (capture_state,
                                           clear_fingerprint_cache)
        from repro.media.content import PlayState, launcher_item
        clear_fingerprint_cache()
        registry = enable()
        try:
            state = PlayState(launcher_item(), 1.0)
            capture_state(state)
            capture_state(state)
            counters = registry.snapshot()["counters"]
            assert counters["acr.memo.miss"] == 1
            assert counters["acr.memo.hit"] == 1
        finally:
            disable()
            clear_fingerprint_cache()

    def test_capture_batch_counts_like_sequential_calls(self):
        from repro.acr.fingerprint import (capture_batch, capture_state,
                                           clear_fingerprint_cache)
        from repro.media.content import PlayState, launcher_item
        item = launcher_item()
        # 1.0 and 1.5 share the key (seed, second 1, scene 0).
        positions = [1.0, 1.5, 2.0, 9.0, 1.0]

        def count(run):
            clear_fingerprint_cache()
            registry = enable()
            try:
                run()
                run()
                return registry.snapshot()["counters"]
            finally:
                disable()
                clear_fingerprint_cache()

        batched = count(lambda: capture_batch(item, positions))
        sequential = count(lambda: [capture_state(PlayState(item, p))
                                    for p in positions])
        # The same hits and misses; one kernel call fills all three
        # misses of the batch, against one per miss.
        for name in ("acr.memo.miss_batches", "acr.kernel.calls"):
            assert batched.pop(name) == 1
            assert sequential.pop(name) == 3
        assert batched.pop("acr.kernel.positions") \
            == sequential.pop("acr.kernel.positions") == 3
        assert batched == sequential
        assert batched["acr.memo.miss"] == 3
        assert batched["acr.memo.hit"] == 7


class TestJsonlExport:
    def _snapshot(self):
        registry = _registry()
        registry.gauge_max("peak", 3.5)
        registry.observe("work.wall_ms", 12.0)
        return registry.snapshot()

    def test_meta_first_then_sorted_records(self):
        text = snapshot_to_jsonl(self._snapshot(), {"command": "fleet"})
        records = [json.loads(line) for line in text.splitlines()]
        assert records[0]["record"] == "meta"
        assert records[0]["schema"] == 1
        assert records[0]["command"] == "fleet"
        kinds = [record["record"] for record in records[1:]]
        assert kinds == sorted(kinds, key=("counter", "gauge",
                                           "histogram").index)
        names = [record["name"] for record in records[1:4]]
        assert names == sorted(names)

    def test_export_is_deterministic(self):
        assert snapshot_to_jsonl(self._snapshot()) \
            == snapshot_to_jsonl(self._snapshot())

    def test_checker_accepts_real_export(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        write_metrics_jsonl(path, self._snapshot(), {"command": "test"})
        with open(path, encoding="utf-8") as fileobj:
            assert check_lines(fileobj.read().splitlines()) == 5

    def test_checker_rejects_tampering(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        write_metrics_jsonl(path, self._snapshot())
        with open(path, encoding="utf-8") as fileobj:
            lines = fileobj.read().splitlines()
        bad = [line.replace('"value": 6', '"value": -6')
               for line in lines]
        with pytest.raises(ValueError, match="non-negative"):
            check_lines(bad)
        with pytest.raises(ValueError, match="first record"):
            check_lines(lines[1:])


def _export_lines():
    registry = _registry()
    registry.gauge_max("peak", 3.5)
    registry.observe("work.wall_ms", 12.0)
    return snapshot_to_jsonl(registry.snapshot(),
                             {"command": "fleet"}).splitlines()


class TestCheckerFuzz:
    """Whatever an export holds, the checker accepts it or raises
    ``ValueError``: never a traceback."""

    def test_nested_line_is_not_json(self):
        lines = _export_lines()
        with pytest.raises(ValueError, match="line 2: not JSON"):
            check_lines([lines[0], NESTED_LINE])

    @pytest.mark.parametrize("field, value", [
        ("le", 5), ("le", {}), ("le", None), ("counts", 5),
        ("counts", None)])
    def test_mistyped_histogram_is_refused(self, field, value):
        lines = _export_lines()
        record = json.loads(lines[-1])
        record[field] = value
        with pytest.raises(ValueError, match=f"line {len(lines)}: "
                                             f"histogram"):
            check_lines(lines[:-1] + [json.dumps(record)])

    @given(lines=damaged_jsonl(_export_lines()))
    @example(lines=[_export_lines()[0], NESTED_LINE])
    @settings(max_examples=500, deadline=None)
    def test_checker_validates_or_refuses(self, lines):
        try:
            check_lines(lines)
        except ValueError:
            pass


@pytest.mark.slow
class TestFleetMetricsJobsInvariance:
    """The acceptance property: a sharded fleet's merged metrics totals
    are independent of ``--jobs`` (modulo wall-clock and per-process
    memo splits, which are documented as non-deterministic)."""

    #: Counters whose totals must match exactly across job counts.
    #: (The fleet decodes through the columnar tier by default, so the
    #: per-packet decode count is ``decode.columnar.packets``.)
    #: ``acr.library.landmark_fills`` is not one: each process fills the
    #: landmark windows its own matches first read, and a forked worker
    #: inherits whatever its parent filled, so the total depends on how
    #: households split over processes, as ``acr.memo.*`` does.  Nor
    #: are ``acr.kernel.calls`` and ``acr.kernel.positions``: they count
    #: the renders behind each process's memo misses, and a look-ahead
    #: render serves only the process that made it.
    DETERMINISTIC = ("fleet.households", "fleet.shards.completed",
                     "pipeline.extends", "decode.columnar.packets",
                     "pipeline.domain_view.build",
                     "pipeline.domain_view.memo_hit")

    def _run(self, jobs):
        population = PopulationSpec(
            households=3, seed=22,
            mixes={"country": {"uk": 1.0},
                   "diary": {"second_screen": 1.0}})
        registry = enable()
        try:
            FleetRunner(cache=None, jobs=jobs, shard_size=1).run(
                population)
            return registry.snapshot()
        finally:
            disable()

    def test_totals_independent_of_jobs(self):
        serial = self._run(1)
        parallel = self._run(2)
        for name in self.DETERMINISTIC:
            assert serial["counters"][name] \
                == parallel["counters"][name], name
        # acr.memo.* are deliberately absent here: the fingerprint memo
        # and the reference libraries are process-wide, so those counts
        # depend on what already ran in this process, not on --jobs.
        # So is assets.warm: a process builds a country's assets once
        # (TestWarmUpAttribution counts it in fresh processes).
        # Span histogram *counts* are deterministic (sums are wall time).
        for name in ("fleet.simulate.wall_ms", "fleet.decode.wall_ms",
                     "fleet.shard.wall_ms"):
            assert serial["histograms"][name]["count"] \
                == parallel["histograms"][name]["count"], name

    def test_warm_up_is_not_booked_to_a_household(self, tmp_path):
        """In a fresh serial run the first shard builds the reference
        library; that time lands in ``assets.warm``, so no household's
        ``fleet.simulate`` span comes near it."""
        histograms = _fresh_run_histograms(
            tmp_path, "fleet", "--households", "3", "--seed", "22",
            "--mix", "country=uk:1", "--jobs", "1")
        simulate = histograms["fleet.simulate.wall_ms"]
        warm = histograms["assets.warm.wall_ms"]
        assert simulate["count"] == 3 and warm["count"] == 1
        assert simulate["max"] < warm["max"]


def _fresh_run_histograms(tmp_path, *command):
    """Run one uncached CLI command in a fresh process with
    ``--metrics-out``; return its histograms by name."""
    import repro
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    path = tmp_path / "metrics.jsonl"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *command, "--no-cache",
         "--metrics-out", str(path)],
        env=env, capture_output=True, check=True)
    histograms = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["record"] == "histogram":
            histograms[record["name"]] = record
    return histograms


@pytest.mark.slow
class TestWarmUpAttribution:
    """A process builds each country's assets once, under
    ``assets.warm``, before its first simulation of that country, and a
    forking pool's parent builds them before the pool starts, so no
    cell's or household's timer absorbs the build."""

    def test_serial_grid(self, tmp_path):
        histograms = _fresh_run_histograms(
            tmp_path, "grid", "--jobs", "1", "--minutes", "1",
            "--filter", "vendor=samsung", "--filter", "country=uk",
            "--filter", "phase=LIn-OIn")
        simulate = histograms["grid.simulate.wall_ms"]
        warm = histograms["assets.warm.wall_ms"]
        assert simulate["count"] == 6 and warm["count"] == 1
        assert simulate["max"] < warm["max"]

    def test_forked_fleet_warms_once_in_the_parent(self, tmp_path):
        # Two countries, so two shards run on the pool.
        histograms = _fresh_run_histograms(
            tmp_path, "fleet", "--households", "4", "--seed", "22",
            "--mix", "country=uk:1,us:1", "--jobs", "2")
        simulate = histograms["fleet.simulate.wall_ms"]
        warm = histograms["assets.warm.wall_ms"]
        assert simulate["count"] == 4 and warm["count"] == 1
        assert simulate["max"] < warm["max"]

    def test_serial_serve(self, tmp_path):
        histograms = _fresh_run_histograms(
            tmp_path, "serve", "--households", "3", "--seed", "22",
            "--mix", "country=uk:1", "--jobs", "1", "--plain")
        simulate = histograms["fleet.simulate.wall_ms"]
        warm = histograms["assets.warm.wall_ms"]
        assert simulate["count"] == 3 and warm["count"] == 1
        assert simulate["max"] < warm["max"]


@pytest.mark.slow
class TestFaultMetricsJobsInvariance:
    """Injection decisions key on stable identities (household index,
    attempt), never execution order — so every ``faults.*`` and
    ``retry.*`` total is identical at any job count."""

    def _run(self, jobs):
        from repro.faults import FaultPlan
        population = PopulationSpec(
            households=3, seed=22,
            mixes={"country": {"uk": 1.0},
                   "diary": {"second_screen": 1.0}})
        plan = FaultPlan.parse("pcap.corrupt:0.9,worker.crash:0.9",
                               seed=9)
        registry = enable()
        try:
            FleetRunner(cache=None, jobs=jobs, shard_size=1,
                        faults=plan).run(population)
            return registry.snapshot()["counters"]
        finally:
            disable()

    def test_fault_totals_independent_of_jobs(self):
        serial = self._run(1)
        parallel = self._run(8)
        names = {name for name in list(serial) + list(parallel)
                 if name.startswith(("faults.", "retry."))}
        # The plan must actually inject (a vacuous pass would hide a
        # plumbing regression), and must exercise both kinds of site.
        assert any(name.startswith("faults.injected.pcap")
                   for name in names)
        assert any(name.startswith("faults.recovered.worker")
                   for name in names)
        for name in sorted(names):
            assert serial.get(name, 0) == parallel.get(name, 0), name
