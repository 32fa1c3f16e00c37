"""Tests for the parallel grid runner and its content-addressed cache.

Covers the acceptance points of the grid subsystem: cell enumeration
with filters, cache hit/miss/invalidation (seed and code-version), and
that a 2-job parallel run is byte-identical to a serial run.
"""

import concurrent.futures
import json
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acr.fingerprint import clear_fingerprint_cache
from repro.analysis.pipeline import AuditPipeline
from repro.cli import main
from repro.experiments import grid as grid_mod
from repro.experiments.grid import (CacheReadError, CellRecord,
                                    GridFilterError, GridResults,
                                    GridRunner, ResultCache,
                                    enumerate_cells, parse_filters,
                                    warm_assets)
from repro.net.addresses import Ipv4Address
from repro.net.columnar import FramesReleasedError
from repro.obs import disable, enable
from repro.sim.clock import minutes
from repro.testbed import Country, ExperimentSpec, Phase, Scenario, Vendor

SHORT = minutes(6)

#: Ways a stored capture can be damaged on disk: one flipped byte at the
#: same length (only the CRC-32 catches it), a truncation, one extra
#: trailing byte.
DAMAGE = {
    "flipped-byte": lambda raw: raw[:-5] + bytes([raw[-5] ^ 0x40])
    + raw[-4:],
    "truncated": lambda raw: raw[:-1],
    "extra-byte": lambda raw: raw + b"\x00",
}


def damage_file(path, kind):
    with open(path, "rb") as fileobj:
        raw = fileobj.read()
    with open(path, "wb") as fileobj:
        fileobj.write(DAMAGE[kind](raw))


def short_cells(*expressions):
    return enumerate_cells(list(expressions), duration_ns=SHORT)


@pytest.fixture
def simulations(monkeypatch):
    """The labels of the cells this process simulates, in order.

    Every grid cell, served from a pool worker or in process, is made
    by ``grid.run_experiment``; a pool worker's calls land in its own
    copy of this list, so only this process's simulations count."""
    labels = []
    simulate = grid_mod.run_experiment

    def counted(spec, *args, **kwargs):
        labels.append(spec.label)
        return simulate(spec, *args, **kwargs)

    monkeypatch.setattr(grid_mod, "run_experiment", counted)
    return labels


class TestEnumeration:
    def test_full_matrix_is_vendor_count_wide(self):
        cells = enumerate_cells()
        assert len(cells) == len(Vendor) * 2 * 6 * 4
        assert len({spec.label for spec in cells}) == len(cells)
        # The paper's own sub-matrix stays 96 cells.
        assert len(enumerate_cells(["vendor=samsung,lg"])) == 2 * 2 * 6 * 4

    def test_order_is_deterministic(self):
        assert [s.label for s in enumerate_cells()] == \
            [s.label for s in enumerate_cells()]

    def test_single_axis_filter(self):
        cells = enumerate_cells(["vendor=lg"])
        assert len(cells) == 48
        assert all(spec.vendor is Vendor.LG for spec in cells)

    def test_multi_value_and_multi_axis_filters(self):
        cells = enumerate_cells(["vendor=lg", "country=uk",
                                 "scenario=linear,hdmi",
                                 "phase=LIn-OIn"])
        assert [spec.label for spec in cells] == \
            ["lg-uk-linear-LIn-OIn", "lg-uk-hdmi-LIn-OIn"]

    def test_dict_filters_accepted(self):
        cells = enumerate_cells({"scenario": {Scenario.IDLE},
                                 "phase": {Phase.LOUT_OOUT}})
        assert len(cells) == len(Vendor) * 2

    def test_duration_applies_to_every_cell(self):
        assert all(spec.duration_ns == SHORT
                   for spec in short_cells("vendor=lg"))

    def test_unknown_axis_rejected(self):
        with pytest.raises(GridFilterError, match="unknown filter axis"):
            parse_filters(["color=red"])

    def test_unknown_value_rejected(self):
        with pytest.raises(GridFilterError, match="unknown vendor"):
            parse_filters(["vendor=philips"])

    def test_malformed_expression_rejected(self):
        with pytest.raises(GridFilterError, match="expected axis=value"):
            parse_filters(["vendor"])

    def test_repeated_axis_unions_values(self):
        filters = parse_filters(["vendor=lg", "vendor=samsung"])
        assert filters["vendor"] == {Vendor.LG, Vendor.SAMSUNG}


FAKE_PCAP = b"\xd4\xc3\xb2\xa1-fake-pcap"


def fake_record(spec, seed=5, payload=FAKE_PCAP):
    return CellRecord(
        label=spec.label, seed=seed, duration_ns=spec.duration_ns,
        packet_count=3, pcap_len=len(payload), tv_mac="02:00:00:00:00:01",
        tv_ip="192.168.4.2", device_id="lg-0000", elapsed_s=0.25,
        pcap_bytes=payload)


class TestResultCache:
    SPEC = ExperimentSpec(Vendor.LG, Country.UK, Scenario.IDLE,
                          Phase.LIN_OIN, SHORT)

    def test_miss_then_store_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        assert cache.load(self.SPEC, 5) is None
        cache.store(fake_record(self.SPEC))
        loaded = cache.load(self.SPEC, 5)
        assert loaded is not None
        assert loaded.from_cache
        assert loaded.packet_count == 3
        assert loaded.pcap_bytes == b"\xd4\xc3\xb2\xa1-fake-pcap"
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_seed_change_invalidates(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        cache.store(fake_record(self.SPEC, seed=5))
        assert cache.load(self.SPEC, 6) is None
        assert cache.load(self.SPEC, 5) is not None

    def test_code_version_change_invalidates(self, tmp_path):
        ResultCache(str(tmp_path), version="v1").store(
            fake_record(self.SPEC))
        assert ResultCache(str(tmp_path),
                           version="v2").load(self.SPEC, 5) is None
        assert ResultCache(str(tmp_path),
                           version="v1").load(self.SPEC, 5) is not None

    def test_duration_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        cache.store(fake_record(self.SPEC))
        longer = ExperimentSpec(Vendor.LG, Country.UK, Scenario.IDLE,
                                Phase.LIN_OIN, minutes(7))
        assert cache.load(longer, 5) is None

    def test_corrupt_meta_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        cache.store(fake_record(self.SPEC))
        meta_path, __ = cache._paths(cache.key(self.SPEC, 5))
        with open(meta_path, "w", encoding="utf-8") as fileobj:
            fileobj.write("{not json")
        assert cache.load(self.SPEC, 5) is None

    def test_capture_is_a_plain_pcap_beside_its_meta(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        record = fake_record(self.SPEC)
        cache.store(record)
        meta_path, pcap_path = cache._paths(cache.key(self.SPEC, 5))
        assert pcap_path.endswith(".pcap")
        with open(pcap_path, "rb") as fileobj:
            assert fileobj.read() == record.pcap_bytes
        with open(meta_path, encoding="utf-8") as fileobj:
            meta = json.load(fileobj)
        assert meta["pcap_len"] == len(record.pcap_bytes)
        assert meta["pcap_crc32"] == record.pcap_crc32

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_damaged_capture_raises_cache_read_error(self, tmp_path,
                                                     kind):
        cache = ResultCache(str(tmp_path), version="v1")
        cache.store(fake_record(self.SPEC))
        __, pcap_path = cache._paths(cache.key(self.SPEC, 5))
        damage_file(pcap_path, kind)
        with pytest.raises(CacheReadError, match="damaged"):
            cache.load(self.SPEC, 5).pcap_bytes

    @pytest.mark.parametrize("crc", [None, "1234", 1.5])
    def test_mistyped_or_missing_crc_never_serves_bytes(self, tmp_path,
                                                       crc):
        cache = ResultCache(str(tmp_path), version="v1")
        cache.store(fake_record(self.SPEC))
        meta_path, __ = cache._paths(cache.key(self.SPEC, 5))
        with open(meta_path, encoding="utf-8") as fileobj:
            meta = json.load(fileobj)
        if crc is None:
            del meta["pcap_crc32"]
        else:
            meta["pcap_crc32"] = crc
        with open(meta_path, "w", encoding="utf-8") as fileobj:
            json.dump(meta, fileobj)
        record = cache.load(self.SPEC, 5)
        if record is not None:
            with pytest.raises(CacheReadError):
                record.pcap_bytes

    @given(st.binary(max_size=40) | st.tuples(
        st.integers(min_value=0, max_value=len(FAKE_PCAP) - 1),
        st.integers(min_value=0, max_value=255)).map(
            lambda edit: FAKE_PCAP[:edit[0]] + bytes([edit[1]])
            + FAKE_PCAP[edit[0] + 1:]))
    @settings(max_examples=150, deadline=None)
    def test_overwritten_capture_reads_back_exactly_or_refuses(self,
                                                               raw):
        # Any bytes at all, or the capture with one byte rewritten
        # (sometimes to its own value).
        with tempfile.TemporaryDirectory() as directory:
            cache = ResultCache(directory, version="v1")
            cache.store(fake_record(self.SPEC))
            __, pcap_path = cache._paths(cache.key(self.SPEC, 5))
            with open(pcap_path, "wb") as fileobj:
                fileobj.write(raw)
            try:
                assert cache.load(self.SPEC, 5).pcap_bytes == FAKE_PCAP
            except CacheReadError:
                assert raw != FAKE_PCAP

    def test_entry_count(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        assert cache.entry_count() == 0
        cache.store(fake_record(self.SPEC))
        assert cache.entry_count() == 1


CELLS = ["vendor=lg", "country=uk", "scenario=idle,linear",
         "phase=LIn-OIn"]


@pytest.mark.slow
class TestGridRunner:
    def test_serial_run_populates_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = short_cells(*CELLS)
        records = GridRunner(seed=3, cache=cache).run(specs)
        assert [r.label for r in records] == [s.label for s in specs]
        assert all(not r.from_cache for r in records)
        assert cache.entry_count() == len(specs)

        rerun = GridRunner(seed=3, cache=cache).run(specs)
        assert all(r.from_cache for r in rerun)
        for fresh, cached in zip(records, rerun):
            assert fresh.pcap_bytes == cached.pcap_bytes

    def test_seed_change_reruns(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = short_cells(*CELLS)[:1]
        GridRunner(seed=3, cache=cache).run(specs)
        other = GridRunner(seed=4, cache=cache).run(specs)
        assert all(not r.from_cache for r in other)
        assert cache.entry_count() == 2

    def test_parallel_matches_serial_byte_for_byte(self):
        specs = short_cells(*CELLS)
        serial = GridRunner(seed=3, cache=None, jobs=1).run(specs)
        parallel = GridRunner(seed=3, cache=None, jobs=2).run(specs)
        assert [r.label for r in parallel] == [r.label for r in serial]
        for a, b in zip(serial, parallel):
            assert a.packet_count == b.packet_count
            assert a.pcap_bytes == b.pcap_bytes

    def test_progress_callback_sees_every_cell(self, tmp_path):
        specs = short_cells(*CELLS)
        seen = []
        GridRunner(seed=3, cache=ResultCache(str(tmp_path))).run(
            specs, progress=lambda spec, record: seen.append(spec.label))
        assert sorted(seen) == sorted(spec.label for spec in specs)


def test_phase_groups_keep_input_order():
    specs = enumerate_cells(["vendor=lg", "country=uk",
                             "scenario=idle,linear",
                             "phase=LIn-OIn,LOut-OIn"])
    cells = list(enumerate(specs))
    interleaved = cells[::2] + cells[1::2]
    assert [[spec.label for __, spec in group]
            for group in grid_mod._phase_groups(interleaved)] == [
        ["lg-uk-idle-LIn-OIn", "lg-uk-idle-LOut-OIn"],
        ["lg-uk-linear-LIn-OIn", "lg-uk-linear-LOut-OIn"]]
    shorter = [(index, ExperimentSpec(spec.vendor, spec.country,
                                      spec.scenario, spec.phase, SHORT))
               for index, spec in cells[:1]]
    assert len(grid_mod._phase_groups(cells[:1] + shorter)) == 2


@pytest.mark.slow
class TestPhaseGroups:
    """The phases of one scenario replay the same content, so the pool
    runs them as one task and the second cell's fingerprints are hits in
    that worker's memo."""

    PHASES = ["vendor=lg", "country=uk", "phase=LIn-OIn,LOut-OIn"]

    @staticmethod
    def run(specs, jobs):
        """The records and the absorbed counters of one run that starts
        from an empty fingerprint memo."""
        clear_fingerprint_cache()
        registry = enable()
        try:
            records = GridRunner(seed=3, cache=None, jobs=jobs).run(specs)
            counters = registry.snapshot()["counters"]
        finally:
            disable()
        return records, counters

    def test_pool_fingerprints_as_the_serial_run(self):
        """Two groups, so the pool runs one two-cell task per worker.
        Run cell by cell, each worker rendered the pair's shared
        fingerprints again: twice the serial misses."""
        specs = short_cells(*self.PHASES, "scenario=idle,linear")
        serial, serial_counters = self.run(specs, 1)
        pooled, pooled_counters = self.run(specs, 2)
        assert serial_counters["acr.memo.miss"] > 0
        assert pooled_counters["acr.memo.miss"] \
            == serial_counters["acr.memo.miss"]
        assert pooled_counters["grid.cells.executed"] == len(specs)
        assert [record.label for record in pooled] \
            == [spec.label for spec in specs]
        for a, b in zip(serial, pooled):
            assert a.pcap_bytes == b.pcap_bytes
            assert {**a.meta(), "elapsed_s": 0} \
                == {**b.meta(), "elapsed_s": 0}

    def test_single_group_runs_in_process(self, simulations):
        specs = short_cells(*self.PHASES, "scenario=linear")
        serial, serial_counters = self.run(specs, 1)
        simulations.clear()
        pooled, pooled_counters = self.run(specs, 2)
        assert simulations == [spec.label for spec in specs]
        assert pooled_counters["acr.memo.miss"] \
            == serial_counters["acr.memo.miss"]
        assert [a.pcap_bytes for a in serial] \
            == [b.pcap_bytes for b in pooled]


@pytest.mark.slow
class TestGridResults:
    SPEC = ExperimentSpec(Vendor.LG, Country.UK, Scenario.LINEAR,
                          Phase.LIN_OIN, SHORT)

    def test_pipeline_from_warm_cache_matches_fresh(self, tmp_path,
                                                    simulations):
        cache = ResultCache(str(tmp_path))
        GridRunner(seed=3, cache=cache).run([self.SPEC])
        simulations.clear()

        warm = GridResults(seed=3, cache=cache)
        pipeline = warm.pipeline(self.SPEC)
        assert simulations == []  # served from disk, no simulation

        fresh = GridResults(seed=3, cache=None).pipeline(self.SPEC)
        assert pipeline.acr_candidate_domains() == \
            fresh.acr_candidate_domains()
        assert pipeline.byte_totals() == fresh.byte_totals()

    def test_ensure_prefetches(self, tmp_path, simulations):
        results = GridResults(seed=3, cache=ResultCache(str(tmp_path)))
        specs = short_cells(*CELLS)
        results.ensure(specs, jobs=2)
        for spec in specs:
            results.pipeline(spec)
        assert simulations == []

    def test_corrupt_pcap_self_heals(self, tmp_path, simulations):
        cache = ResultCache(str(tmp_path))
        GridRunner(seed=3, cache=cache).run([self.SPEC])
        __, pcap_path = cache._paths(cache.key(self.SPEC, 3))
        with open(pcap_path, "wb") as fileobj:
            fileobj.write(b"garbage, not zlib")
        simulations.clear()

        healed = GridResults(seed=3, cache=cache)
        pipeline = healed.pipeline(self.SPEC)  # re-runs and re-stores
        assert simulations == [self.SPEC.label]
        assert pipeline.acr_candidate_domains()

        again = GridResults(seed=3, cache=cache)
        assert again.pipeline(self.SPEC).byte_totals() == \
            pipeline.byte_totals()
        # The repaired entry serves from disk.
        assert simulations == [self.SPEC.label]

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_damaged_pcap_self_heals(self, tmp_path, kind, simulations):
        cache = ResultCache(str(tmp_path))
        stored = GridRunner(seed=3, cache=cache).run([self.SPEC])[0]
        original = stored.pcap_bytes  # read before the file is damaged
        __, pcap_path = cache._paths(cache.key(self.SPEC, 3))
        damage_file(pcap_path, kind)
        simulations.clear()

        healed = GridResults(seed=3, cache=cache)
        healed.pipeline(self.SPEC)  # re-runs and re-stores
        assert simulations == [self.SPEC.label]
        with open(pcap_path, "rb") as fileobj:
            assert fileobj.read() == original
        assert cache.load(self.SPEC, 3).pcap_bytes == original

    def test_parent_holds_columns_not_captures(self, tmp_path):
        specs = short_cells(*CELLS)
        # Assets and the pool machinery's first-use imports are made
        # before tracing: they are not the grid's data.
        warm_assets(specs)
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            pool.submit(int).result()
        results = GridResults(seed=3, cache=ResultCache(str(tmp_path)))
        tracemalloc.start()
        try:
            results.ensure(specs, jobs=2)
            pipelines = [results.pipeline(spec) for spec in specs]
            held, __ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        records = [results.record(spec) for spec in specs]
        assert all(record._pcap_bytes is None for record in records)
        for pipeline in pipelines:
            with pytest.raises(FramesReleasedError):
                pipeline.packets.frame(0)
        # Holding the captures alone would cost their full size.
        assert held < sum(record.pcap_len for record in records) / 2

    def test_parallel_store_reloads_identically(self, tmp_path,
                                                monkeypatch):
        stores = []
        store = ResultCache.store

        def counted(cache, record):
            stores.append(record.label)
            store(cache, record)

        # Pool workers call their own copy; only this process's calls
        # land in ``stores``.
        monkeypatch.setattr(ResultCache, "store", counted)
        specs = short_cells(*CELLS)
        pooled = str(tmp_path / "pooled")
        stored = GridRunner(seed=3, cache=ResultCache(
            pooled, version="v-test"), jobs=2).run(specs)
        assert stores == []  # each worker stored its own cell

        serial = ResultCache(str(tmp_path / "serial"), version="v-test")
        GridRunner(seed=3, cache=serial, jobs=1).run(specs)
        assert sorted(stores) == sorted(spec.label for spec in specs)

        fresh = ResultCache(pooled, version="v-test")
        for spec, record in zip(specs, stored):
            loaded = fresh.load(spec, 3)
            assert loaded.from_cache
            assert loaded.pcap_bytes == serial.load(spec, 3).pcap_bytes
            # The stored file is itself the capture: it decodes as is.
            __, pcap_path = fresh._paths(fresh.key(spec, 3))
            with open(pcap_path, "rb") as fileobj:
                pipeline = AuditPipeline.from_pcap_bytes(
                    fileobj.read(), Ipv4Address.parse(record.tv_ip))
            assert len(pipeline.packets) == record.packet_count

    def test_capture_identical_across_processes(self, tmp_path):
        """The cache's core guarantee: a fresh process reproduces the
        exact capture bytes another process stored (no PYTHONHASHSEED
        dependence)."""
        import hashlib
        import os
        import subprocess
        import sys

        spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.IDLE,
                              Phase.LIN_OIN, SHORT)
        record = GridRunner(seed=3, cache=None).run([spec])[0]
        local_digest = hashlib.sha256(record.pcap_bytes).hexdigest()

        code = (
            "import hashlib\n"
            "from repro.experiments.grid import GridRunner, "
            "enumerate_cells\n"
            "from repro.sim.clock import minutes\n"
            "specs = enumerate_cells(['vendor=lg', 'country=uk', "
            "'scenario=idle', 'phase=LIn-OIn'], "
            "duration_ns=minutes(6))\n"
            "record = GridRunner(seed=3, cache=None).run(specs)[0]\n"
            "print(hashlib.sha256(record.pcap_bytes).hexdigest())\n")
        import repro
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == local_digest


@pytest.mark.slow
class TestCliGrid:
    ARGS = ["grid", "--minutes", "6", "--seed", "3",
            "--filter", "vendor=lg", "--filter", "country=uk",
            "--filter", "scenario=idle,linear", "--filter",
            "phase=LIn-OIn"]

    def test_cold_then_warm(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "grid summary" in out
        assert out.count("[ran") == 2

        assert main(args + ["--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("cached") >= 2
        assert "[ran" not in out

    def test_no_cache_always_executes(self, capsys):
        args = ["grid", "--minutes", "6", "--seed", "3",
                "--filter", "vendor=lg", "--filter", "country=uk",
                "--filter", "scenario=idle", "--filter",
                "phase=LIn-OIn", "--no-cache"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("[ran") == 1
        assert "cache off" in out

    def test_bad_filter_is_an_error(self, capsys):
        assert main(["grid", "--filter", "vendor=philips"]) == 2
        assert "unknown vendor" in capsys.readouterr().err

    def test_too_short_duration_is_an_error(self, capsys):
        assert main(["grid", "--minutes", "0"]) == 2
        assert "error:" in capsys.readouterr().err
