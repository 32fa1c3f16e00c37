"""Streaming-vs-batch equivalence: the service tier's one invariant.

Property-tested claim: for ANY segment count, credit window, household
window, arrival interleaving, job count, and checkpoint/kill/resume
point, the streaming service renders a fleet report byte-identical
(sha256) to the batch ``fleet --jobs 1`` path over the same population.

The simulating tests share one module-scoped result cache, so only the
first run pays for capture simulation; every subsequent property
example replays cached captures through a different streaming schedule.
"""

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrival_order import arrivals
from flow_oracle import flow_keys as oracle_flow_keys
from fuzz_inputs import json_values
from packet_oracle import CapturedPacket, decode_all, dump_bytes, load_bytes
from repro.experiments.grid import ResultCache
from repro.fleet import (FleetAggregate, FleetRunner, PopulationSpec,
                         render_population_report)
from repro.fleet.runner import household_record
from repro.net import PcapError
from repro.service import (CheckpointError, IncrementalAuditor,
                           ServiceConfig, ServiceStopped, load_checkpoint,
                           segment_record, serve_fleet, split_pcap_bytes,
                           write_checkpoint)
from repro.service.checkpoint import (CHECKPOINT_NAME, checkpoint_path,
                                      population_key)
from repro.service.segments import PCAP_HEADER_LEN

# The cheap simulated fleet: one country (one asset build), the
# shortest diary.  Same shape the fleet runner tests use.
UK_QUICK = {"country": {"uk": 1.0}, "diary": {"second_screen": 1.0}}
POP = dict(households=4, seed=21, mixes=UK_QUICK)


def sha(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def serve_sha(population, cache, **kwargs) -> str:
    config = ServiceConfig(
        window=kwargs.pop("window", 3),
        credits=kwargs.pop("credits", 2),
        segments=kwargs.pop("segments", 5),
        checkpoint_every=kwargs.pop("checkpoint_every", 1))
    with arrivals(kwargs.pop("arrival_seed", None)):
        result = serve_fleet(population, cache=cache, config=config,
                             **kwargs)
    return sha(render_population_report(result.state,
                                        result.population))


@pytest.fixture(scope="module")
def cache():
    # Lives under the suite's persistent cache root (conftest points
    # REPRO_CACHE_DIR at a tempdir), so repeated `make test` runs stay
    # warm; the explicit version isolates it from other suites.
    root = os.path.join(os.environ["REPRO_CACHE_DIR"], "service-eq")
    return ResultCache(root, version="service-eq-1")


@pytest.fixture(scope="module")
def population():
    return PopulationSpec(**POP)


@pytest.fixture(scope="module")
def batch_sha(cache, population):
    result = FleetRunner(cache=cache, jobs=1).run(population)
    return sha(render_population_report(result.aggregate, population))


class TestSplitIsBytePreserving:
    """Fast, simulation-free: the segmentation layer's exact contract."""

    @given(payloads=st.lists(st.binary(min_size=1, max_size=90),
                             max_size=12),
           parts=st.integers(min_value=1, max_value=15))
    @settings(max_examples=120, deadline=None)
    def test_reassembly_reproduces_the_capture(self, payloads, parts):
        raw = dump_bytes([CapturedPacket(i * 1_000, data)
                          for i, data in enumerate(payloads)])
        chunks = split_pcap_bytes(raw, parts)
        header = raw[:PCAP_HEADER_LEN]
        assert all(chunk[:PCAP_HEADER_LEN] == header for chunk in chunks)
        body = b"".join(chunk[PCAP_HEADER_LEN:] for chunk in chunks)
        assert header + body == raw
        # The pcap_len accounting the fleet report depends on.
        assert sum(len(chunk) - PCAP_HEADER_LEN for chunk in chunks) \
            + PCAP_HEADER_LEN == len(raw)

    @given(raw=st.binary(max_size=200)
           | st.binary(max_size=200).map(lambda tail: dump_bytes([]) + tail),
           parts=st.integers(min_value=-2, max_value=15))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_split_or_refuse(self, raw, parts):
        # Anything the decode's record walk refuses is refused with
        # PcapError (a ValueError), as is a non-positive part count;
        # whatever splits loses no byte.
        try:
            chunks = split_pcap_bytes(raw, parts)
        except (PcapError, ValueError):
            return
        assert all(chunk[:PCAP_HEADER_LEN] == raw[:PCAP_HEADER_LEN]
                   for chunk in chunks)
        assert b"".join(chunk[PCAP_HEADER_LEN:] for chunk in chunks) \
            == raw[PCAP_HEADER_LEN:]

    def test_empty_capture_yields_header_only_chunk(self):
        raw = dump_bytes([])
        assert split_pcap_bytes(raw, 4) == [raw]

    def test_more_parts_than_records_degrades_to_one_each(self):
        raw = dump_bytes([CapturedPacket(1, b"ab"),
                          CapturedPacket(2, b"cd")])
        assert len(split_pcap_bytes(raw, 9)) == 2


@pytest.mark.slow
class TestStreamingEqualsBatch:
    @given(window=st.integers(min_value=1, max_value=4),
           credits=st.integers(min_value=1, max_value=3),
           segments=st.integers(min_value=1, max_value=9),
           arrival_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_any_schedule_matches_batch(self, cache, population,
                                        batch_sha, window, credits,
                                        segments, arrival_seed):
        assert serve_sha(population, cache, window=window,
                         credits=credits, segments=segments,
                         arrival_seed=arrival_seed) == batch_sha

    def test_parallel_production_matches_batch(self, cache, population,
                                               batch_sha):
        assert serve_sha(population, cache, jobs=2) == batch_sha

    def test_batch_jobs_invariance_still_holds(self, cache, population,
                                               batch_sha):
        parallel = FleetRunner(cache=cache, jobs=2).run(population)
        assert sha(render_population_report(parallel.aggregate,
                                            population)) == batch_sha

    def test_served_aggregate_equals_batch(self, cache, population,
                                           batch_sha):
        result = serve_fleet(population, cache=cache,
                             config=ServiceConfig(segments=3))
        assert result.state == FleetRunner(cache=cache).run(
            population).aggregate
        assert sha(render_population_report(
            result.state, population)) == batch_sha


class TestServeFlowKeys:
    """A real household capture, cut as ``serve`` cuts it."""

    def test_keys_after_every_segment_match_oracle(self, cache,
                                                  population):
        household = next(iter(population))
        record, __ = household_record(household, cache)
        segments = segment_record(household.index, record.pcap_bytes, 6)
        assert len(segments) == 6
        auditor = IncrementalAuditor()
        auditor.open(household, record.tv_ip)
        applied = []
        for segment in segments:
            auditor.ingest(segment)
            applied += decode_all(load_bytes(segment.payload))
            expected = oracle_flow_keys(applied)
            assert auditor.flow_keys[household.index] == expected
            assert auditor.tracked_flows == len(expected)
        summary = auditor.finalize(household.index)
        assert summary["packets"] == len(applied)
        assert "findings" not in summary


@pytest.mark.slow
class TestKillResumeEqualsBatch:
    @given(stop_after=st.integers(min_value=1, max_value=60),
           segments=st.integers(min_value=2, max_value=7),
           resume_credits=st.integers(min_value=1, max_value=3),
           arrival_seed=st.integers(min_value=0, max_value=10_000))
    # A stop that lands after the last household folds, while no-op
    # retry events are still queued: the run completes, not stops.
    @example(stop_after=34, segments=7, resume_credits=1,
             arrival_seed=1466)
    @settings(max_examples=6, deadline=None)
    def test_kill_anywhere_then_resume_matches_batch(
            self, cache, population, batch_sha, stop_after, segments,
            resume_credits, arrival_seed):
        # Stop after an arbitrary number of events; the resumed run may
        # even use a different credit window and segmentation — the
        # checkpoint only carries folded aggregates, so none of the
        # streaming knobs are load-bearing.
        with tempfile.TemporaryDirectory() as ckdir:
            ticks = [0]

            def stop_check():
                ticks[0] += 1
                return ticks[0] > stop_after

            config = ServiceConfig(segments=segments, checkpoint_every=1)
            try:
                with arrivals(arrival_seed):
                    result = serve_fleet(population, cache=cache,
                                         config=config,
                                         checkpoint_dir=ckdir,
                                         stop_check=stop_check)
                report = render_population_report(result.state,
                                                  population)
            except ServiceStopped:
                snapshot = load_checkpoint(ckdir)
                assert len(snapshot.completed) < population.households
                resumed = serve_fleet(
                    population, cache=cache,
                    config=ServiceConfig(credits=resume_credits,
                                         segments=segments + 1),
                    checkpoint_dir=ckdir, resume=True)
                assert resumed.resumed_households == \
                    len(snapshot.completed)
                report = render_population_report(resumed.state,
                                                  population)
            assert sha(report) == batch_sha

    def test_growing_the_fleet_in_place(self, cache):
        # Checkpoint a 2-household stream, then resume asking for 4:
        # the first two households come from the checkpoint, and the
        # report matches a batch run over the full 4.
        small = PopulationSpec(households=2, seed=21, mixes=UK_QUICK)
        full = PopulationSpec(**POP)
        with tempfile.TemporaryDirectory() as ckdir:
            first = serve_fleet(small, cache=cache,
                                config=ServiceConfig(segments=4),
                                checkpoint_dir=ckdir)
            assert first.state.households == 2
            grown = serve_fleet(full, cache=cache,
                                config=ServiceConfig(segments=4),
                                checkpoint_dir=ckdir, resume=True)
            assert grown.resumed_households == 2
            batch = FleetRunner(cache=cache, jobs=1).run(full)
            assert grown.state == batch.aggregate

    def test_resume_from_a_legacy_checkpoint(self, cache, population,
                                             batch_sha):
        # A checkpoint written in the first version-1 layout resumes:
        # the two households it holds are not run again, and the report
        # matches the batch run.
        small = PopulationSpec(households=2, seed=21, mixes=UK_QUICK)
        folded = serve_fleet(small, cache=cache,
                             config=ServiceConfig(segments=4)).state
        with tempfile.TemporaryDirectory() as ckdir:
            with open(checkpoint_path(ckdir), "w",
                      encoding="utf-8") as fileobj:
                fileobj.write(legacy_text(folded, [0, 1], population_key(
                    population.seed, population.mixes)))
            resumed = serve_fleet(population, cache=cache,
                                  config=ServiceConfig(segments=4),
                                  checkpoint_dir=ckdir, resume=True)
            assert resumed.resumed_households == 2
            assert sha(render_population_report(
                resumed.state, population)) == batch_sha

    def test_resume_of_a_finished_run_is_idempotent(self, cache,
                                                    population,
                                                    batch_sha):
        with tempfile.TemporaryDirectory() as ckdir:
            serve_fleet(population, cache=cache,
                        config=ServiceConfig(segments=4),
                        checkpoint_dir=ckdir)
            again = serve_fleet(population, cache=cache,
                                config=ServiceConfig(segments=4),
                                checkpoint_dir=ckdir, resume=True)
            assert again.resumed_households == population.households
            assert again.segments_delivered == 0
            assert sha(render_population_report(
                again.state, population)) == batch_sha


@pytest.mark.slow
class TestCheckpointDurability:
    """Corrupted snapshots on disk degrade to the newest valid one."""

    def _stop_partway(self, cache, population, ckdir, stop_after=18):
        ticks = [0]

        def stop_check():
            ticks[0] += 1
            return ticks[0] > stop_after

        config = ServiceConfig(segments=5, checkpoint_every=1)
        with pytest.raises(ServiceStopped):
            serve_fleet(population, cache=cache, config=config,
                        checkpoint_dir=ckdir, stop_check=stop_check)

    def test_resume_falls_back_past_corrupt_snapshots(
            self, cache, population, batch_sha):
        from repro.service.checkpoint import (checkpoint_path,
                                              rotated_path,
                                              rotated_sequences)
        with tempfile.TemporaryDirectory() as ckdir:
            self._stop_partway(cache, population, ckdir)
            sequences = rotated_sequences(ckdir)
            assert len(sequences) >= 2
            # Tear the canonical snapshot and flip one byte inside the
            # newest rotated one (its digest no longer matches): resume
            # must fall back to an older snapshot, then re-converge.
            with open(checkpoint_path(ckdir), "r+",
                      encoding="utf-8") as fileobj:
                text = fileobj.read()
                fileobj.seek(0)
                fileobj.truncate()
                fileobj.write(text[:len(text) // 2])
            newest = rotated_path(ckdir, sequences[-1])
            with open(newest, encoding="utf-8") as fileobj:
                text = fileobj.read()
            with open(newest, "w", encoding="utf-8") as fileobj:
                fileobj.write(text.replace('"households":', '"hauseholds":', 1))
            resumed = serve_fleet(
                population, cache=cache,
                config=ServiceConfig(segments=5, checkpoint_every=1),
                checkpoint_dir=ckdir, resume=True)
            assert sha(render_population_report(
                resumed.state, population)) == batch_sha

    def test_rotated_snapshots_stay_bounded(self, cache, population):
        from repro.service.checkpoint import (CHECKPOINT_KEEP,
                                              rotated_sequences)
        with tempfile.TemporaryDirectory() as ckdir:
            serve_fleet(population, cache=cache,
                        config=ServiceConfig(segments=4,
                                             checkpoint_every=1),
                        checkpoint_dir=ckdir)
            assert 1 <= len(rotated_sequences(ckdir)) \
                <= CHECKPOINT_KEEP


#: Canonical-file contents that are no checkpoint: JSON that is not an
#: object, bytes that are not UTF-8, and an object missing its fields.
MALFORMED = [b"[]", b'"x"', b"\xff\xfe{}", b'{"version": 1}']
MALFORMED_IDS = ["list", "string", "not-utf8", "fields-missing"]


def valid_document():
    """A verified checkpoint document, one household folded."""
    with tempfile.TemporaryDirectory() as directory:
        aggregate = FleetAggregate()
        aggregate.households = 1
        write_checkpoint(directory, aggregate, [0], population_key(1, {}))
        with open(checkpoint_path(directory), encoding="utf-8") as fileobj:
            return json.load(fileobj)


def legacy_text(aggregate, completed, key):
    """A checkpoint file in the first version-1 layout, which also
    carried the population size, the count of segments applied and the
    in-flight ingestion cursors; the digest covers them all."""
    document = {
        "version": 1, "seq": 0, "population": key,
        "households": POP["households"], "segments_folded": 9,
        "completed": sorted(completed), "cursors": {"2": 1},
        "aggregate": aggregate.to_dict(),
    }
    canonical = json.dumps(document, sort_keys=True,
                           separators=(",", ":"))
    document["digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    return json.dumps(document, sort_keys=True, indent=1) + "\n"


#: Where a mistyped value can go: a top-level field, or one slot of the
#: folded aggregate.
DOCUMENT_FIELDS = sorted(
    [(field,) for field in valid_document()]
    + [("aggregate", slot) for slot in FleetAggregate().to_dict()])


def assert_loads_or_refuses(raw):
    """A canonical file holding ``raw`` loads or raises CheckpointError:
    nothing else escapes the loader."""
    with tempfile.TemporaryDirectory() as directory:
        with open(checkpoint_path(directory), "wb") as fileobj:
            fileobj.write(raw)
        try:
            load_checkpoint(directory)
        except CheckpointError:
            pass


class TestCheckpointGuards:
    """Simulation-free checkpoint validation behaviour."""

    def test_checkpoint_for_a_different_fleet_is_refused(self, tmp_path):
        key = population_key(1, {"vendor": {"lg": 1.0}})
        write_checkpoint(str(tmp_path), FleetAggregate(), (), key)
        with pytest.raises(CheckpointError, match="different fleet"):
            load_checkpoint(str(tmp_path), expect_key=population_key(
                2, {"vendor": {"lg": 1.0}}))

    def test_population_key_ignores_size(self):
        mixes = {"vendor": {"lg": 2.0, "samsung": 1.0}}
        assert population_key(7, mixes) == population_key(7, dict(mixes))
        assert population_key(7, mixes) != population_key(8, mixes)

    def test_missing_checkpoint_is_a_clean_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "nowhere"))

    @pytest.mark.parametrize("key", [None, population_key(1, {})],
                             ids=["unkeyed", "keyed"])
    @pytest.mark.parametrize("raw", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_checkpoint_is_a_clean_error(self, tmp_path, raw,
                                                   key):
        (tmp_path / CHECKPOINT_NAME).write_bytes(raw)
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            load_checkpoint(str(tmp_path), expect_key=key)

    @pytest.mark.parametrize("raw", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_canonical_falls_back_to_rotated_twin(
            self, tmp_path, raw):
        key = population_key(1, {})
        write_checkpoint(str(tmp_path), FleetAggregate(), [3], key)
        with open(checkpoint_path(str(tmp_path)), "wb") as fileobj:
            fileobj.write(raw)
        loaded = load_checkpoint(str(tmp_path), expect_key=key)
        assert loaded.completed == {3}

    def test_legacy_document_loads_without_its_extra_fields(self,
                                                            tmp_path):
        key = population_key(1, {})
        aggregate = FleetAggregate()
        aggregate.households = 2
        (tmp_path / CHECKPOINT_NAME).write_text(
            legacy_text(aggregate, [0, 1], key), encoding="utf-8")
        loaded = load_checkpoint(str(tmp_path), expect_key=key)
        assert loaded.completed == {0, 1}
        assert loaded.aggregate == aggregate
        # The new layout drops exactly the fields nothing read back.
        document = valid_document()
        assert not {"cursors", "households", "segments_folded"} \
            & set(document)

    def test_damaged_legacy_document_is_refused(self, tmp_path):
        text = legacy_text(FleetAggregate(), [0], population_key(1, {}))
        (tmp_path / CHECKPOINT_NAME).write_text(
            text.replace('"segments_folded": 9', '"segments_folded": 8'),
            encoding="utf-8")
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(str(tmp_path))

    def test_resume_from_malformed_checkpoint_exits_2(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        (tmp_path / CHECKPOINT_NAME).write_bytes(b"[]")
        assert main(["serve", "--households", "1", "--no-cache",
                     "--plain", "--checkpoint-dir", str(tmp_path),
                     "--resume"]) == 2
        assert "no valid checkpoint" in capsys.readouterr().err

    @given(st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_canonical_bytes_load_or_refuse(self, raw):
        assert_loads_or_refuses(raw)

    @given(st.sampled_from(DOCUMENT_FIELDS), json_values)
    @settings(max_examples=150, deadline=None)
    def test_mistyped_field_loads_or_refuses(self, path, value):
        document = valid_document()
        del document["digest"]
        parent = document
        for name in path[:-1]:
            parent = parent[name]
        parent[path[-1]] = value
        assert_loads_or_refuses(json.dumps(document).encode())

    def test_resume_without_checkpoint_dir_is_rejected(self):
        population = PopulationSpec(households=1, seed=3)
        with pytest.raises(ValueError, match="checkpoint dir"):
            serve_fleet(population, resume=True)
