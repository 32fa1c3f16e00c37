"""Tests for the fleet layer: population sampling, diaries, streaming
aggregation and the sharded runner.

The acceptance points: the same fleet seed derives the same household
list in every process; aggregate ``merge()`` is associative and
commutative (so shards combine in any order); and a parallel fleet run
produces a byte-identical report to a serial one.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.experiments.grid import ResultCache
from repro.findings import (DEGRADATION_CODE, OPTOUT_VIOLATION_CODE,
                            Finding, FindingsLedger)
from repro.fleet import (DIARIES, FleetAggregate, FleetRunner,
                         HouseholdSpec, MixError, PopulationSpec,
                         diary_named, parse_mix,
                         render_population_report)
from repro.fleet.runner import household_record
from repro.sim.clock import minutes, seconds
from repro.testbed.experiment import (Phase, SCENARIO_START_NS, Scenario,
                                      Vendor)
from repro.testbed.runner import SESSION_TAIL_NS, run_session
from repro.testbed.validation import validate_session

# A cheap population for tests that actually simulate: one country (one
# asset build), the shortest diary.
UK_QUICK = {"country": {"uk": 1.0}, "diary": {"second_screen": 1.0}}


class TestPopulationSampling:
    def test_same_seed_same_households(self):
        first = PopulationSpec(20, seed=9).sample()
        second = PopulationSpec(20, seed=9).sample()
        assert first == second

    def test_prefix_stable_when_population_grows(self):
        # Household i is derived from (seed, i) alone, so growing the
        # fleet re-derives the existing households identically — the
        # property that lets an enlarged fleet reuse its cache.
        small = PopulationSpec(5, seed=9).sample()
        large = PopulationSpec(50, seed=9).sample()
        assert large[:5] == small

    def test_different_fleet_seed_changes_households(self):
        assert PopulationSpec(20, seed=9).sample() != \
            PopulationSpec(20, seed=10).sample()

    def test_household_seeds_are_distinct(self):
        seeds = [h.seed for h in PopulationSpec(200, seed=9).sample()]
        assert len(set(seeds)) == len(seeds)

    def test_identical_across_processes(self):
        """The cache contract: another process derives the exact same
        population from the same fleet seed."""
        households = PopulationSpec(25, seed=13).sample()
        digest = hashlib.sha256(
            repr([h.as_tuple() for h in households]).encode()).hexdigest()

        code = (
            "import hashlib\n"
            "from repro.fleet import PopulationSpec\n"
            "households = PopulationSpec(25, seed=13).sample()\n"
            "print(hashlib.sha256(repr([h.as_tuple() for h in "
            "households]).encode()).hexdigest())\n")
        import repro
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        # A different hash seed must not perturb the derivation.
        env["PYTHONHASHSEED"] = "271828"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == digest

    def test_mix_restricts_draws(self):
        population = PopulationSpec(
            30, seed=9,
            mixes={"vendor": {"lg": 1.0}, "country": {"uk": 1.0},
                   "diary": {"binge": 1.0}})
        for household in population:
            assert household.vendor is Vendor.LG
            assert household.country.value == "uk"
            assert household.diary == "binge"

    def test_skewed_mix_skews_counts(self):
        population = PopulationSpec(
            300, seed=9, mixes={"vendor": {"lg": 9.0, "samsung": 1.0}})
        lg = sum(h.vendor is Vendor.LG for h in population)
        assert lg > 240  # expectation 270; far from 150

    def test_roundtrip_through_tuples(self):
        for household in PopulationSpec(10, seed=3).sample():
            assert HouseholdSpec.from_tuple(household.as_tuple()) == \
                household

    def test_countries_lists_only_weighted(self):
        population = PopulationSpec(5, seed=3,
                                    mixes={"country": {"uk": 1.0,
                                                       "us": 0.0}})
        assert population.countries() == ["uk"]

    def test_library_path_validates_mixes_too(self):
        # Not just the CLI: constructing a PopulationSpec directly with
        # a degenerate mix must fail loudly, not ZeroDivisionError later.
        with pytest.raises(MixError, match="zero total weight"):
            PopulationSpec(5, mixes={"vendor": {"lg": 0.0,
                                                "samsung": 0.0}})
        with pytest.raises(MixError, match="unknown vendor"):
            PopulationSpec(5, mixes={"vendor": {"philips": 1.0}})
        with pytest.raises(MixError, match="unknown mix axis"):
            PopulationSpec(5, mixes={"colour": {"red": 1.0}})


class TestMixParsing:
    def test_defaults_kept_for_unset_axes(self):
        mixes = parse_mix(["vendor=lg:1"])
        assert mixes["vendor"] == {"lg": 1.0}
        assert set(mixes["diary"]) == set(DIARIES)

    def test_weights_optional_and_relative(self):
        mixes = parse_mix(["vendor=lg,samsung:3"])
        assert mixes["vendor"] == {"lg": 1.0, "samsung": 3.0}

    def test_unknown_axis_rejected(self):
        with pytest.raises(MixError, match="unknown mix axis"):
            parse_mix(["colour=red:1"])

    def test_unknown_value_rejected(self):
        with pytest.raises(MixError, match="unknown vendor"):
            parse_mix(["vendor=philips:1"])

    def test_bad_weight_rejected(self):
        with pytest.raises(MixError, match="bad weight"):
            parse_mix(["vendor=lg:heavy"])

    def test_negative_weight_rejected(self):
        with pytest.raises(MixError, match="negative weight"):
            parse_mix(["vendor=lg:-1"])

    def test_zero_total_rejected(self):
        with pytest.raises(MixError, match="zero total weight"):
            parse_mix(["vendor=lg:0"])

    def test_malformed_expression_rejected(self):
        with pytest.raises(MixError, match="expected"):
            parse_mix(["vendor"])


class TestDiaries:
    def test_all_archetypes_have_positive_segments(self):
        for diary in DIARIES.values():
            assert diary.segments
            assert all(s.dwell_ns > 0 for s in diary.segments)

    def test_duration_is_lead_in_plus_dwells_plus_tail(self):
        diary = diary_named("binge")
        dwell = sum(s.dwell_ns for s in diary.segments)
        assert diary.duration_ns == \
            SCENARIO_START_NS + dwell + SESSION_TAIL_NS

    def test_unknown_diary_rejected(self):
        with pytest.raises(ValueError, match="unknown diary"):
            diary_named("doomscroll")


@pytest.mark.slow
class TestMultiSegmentSession:
    def test_session_switches_sources_in_order(self):
        segments = [(Scenario.IDLE, minutes(2)),
                    (Scenario.LINEAR, minutes(3)),
                    (Scenario.OTT, minutes(3))]
        result = run_session(Vendor.LG, _uk(), Phase.LIN_OIN, segments,
                             seed=5)
        report = validate_session(
            result, [scenario for scenario, __ in segments])
        assert report.ok, report.failures
        actions = [label for __, label in result.action_log
                   if label.startswith("select-source")]
        assert actions == ["select-source:home", "select-source:tuner",
                           "select-source:ott"]

    def test_session_is_deterministic(self):
        segments = diary_named("second_screen").as_runner_segments()
        first = run_session(Vendor.SAMSUNG, _uk(), Phase.LIN_OIN,
                            segments, seed=5, label="hh-test")
        second = run_session(Vendor.SAMSUNG, _uk(), Phase.LIN_OIN,
                             segments, seed=5, label="hh-test")
        assert first.pcap_bytes == second.pcap_bytes

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError, match="at least one segment"):
            run_session(Vendor.LG, _uk(), Phase.LIN_OIN, [], seed=5)


def _uk():
    from repro.testbed.experiment import Country
    return Country.UK


def summary(vendor="lg", country="uk", phase="LIn-OIn", diary="binge",
            opted_in=True, packets=100, acr_bytes=5000, upload=3000,
            acr_packets=20, bursts=4, cadence_sum=seconds(45),
            intervals=3, domains=("eu-acr4.alphonso.tv",)):
    return {
        "vendor": vendor, "country": country, "phase": phase,
        "diary": diary, "opted_in": opted_in, "packets": packets,
        "pcap_len": packets * 80, "acr_domains": list(domains),
        "acr_bytes": acr_bytes, "acr_upload_bytes": upload,
        "acr_packets": acr_packets, "acr_bursts": bursts,
        "cadence_sum_ns": cadence_sum, "cadence_intervals": intervals,
    }


SUMMARIES = [
    summary(),
    summary(vendor="samsung", country="us", diary="ambient",
            acr_bytes=9000, cadence_sum=seconds(80), intervals=5),
    summary(phase="LIn-OOut", opted_in=False, acr_bytes=0, upload=0,
            acr_packets=0, bursts=0, cadence_sum=0, intervals=0,
            domains=()),
    summary(vendor="samsung", acr_bytes=700,
            domains=("acr0.samsungcloudsolution.com",)),
]


def folded(summaries):
    aggregate = FleetAggregate()
    for entry in summaries:
        aggregate.fold(entry)
    return aggregate


class TestAggregate:
    def test_fold_counts(self):
        aggregate = folded(SUMMARIES)
        assert aggregate.households == 4
        assert aggregate.acr_households == 3
        assert aggregate.vendors == {"lg": 2, "samsung": 2}
        assert aggregate.optout_households == 1
        assert aggregate.optout_acr_households == 0
        assert aggregate.optin_acr_households == 3
        assert aggregate.domain_households["eu-acr4.alphonso.tv"] == 2

    def test_merge_is_commutative(self):
        a = folded(SUMMARIES[:2])
        b = folded(SUMMARIES[2:])
        assert a.merge(b) == b.merge(a)

    def test_merge_is_associative(self):
        a, b, c = (folded([entry]) for entry in SUMMARIES[:3])
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_empty_aggregate_is_identity(self):
        a = folded(SUMMARIES)
        assert a.merge(FleetAggregate()) == a
        assert FleetAggregate().merge(a) == a

    def test_merge_identity_with_zero_valued_folds(self):
        # Regression: SUMMARIES[2] folds zero ACR volume.  The old
        # merge copied Counter entries verbatim, so a zero count picked
        # up along one fold path made `a.merge(empty)` compare unequal
        # to `a` (Counter({"lg": 0}) != Counter()).  Identity must hold
        # on both sides, including for aggregates with zero-heavy folds
        # — that is exactly what a fresh checkpoint merge looks like.
        zero_heavy = folded([SUMMARIES[2]])
        assert zero_heavy.merge(FleetAggregate()) == zero_heavy
        assert FleetAggregate().merge(zero_heavy) == zero_heavy
        # Dict equality is exact: an explicit {"lg": 0} entry would fail.
        assert zero_heavy.acr_bytes_by_vendor == {}

    def test_merge_never_materializes_zero_counts(self):
        merged = folded([SUMMARIES[2]]).merge(folded([SUMMARIES[2]]))
        for name in ("acr_bytes_by_vendor", "acr_upload_bytes_by_vendor",
                     "cadence_sum_ns_by_vendor",
                     "cadence_intervals_by_vendor"):
            counter = getattr(merged, name)
            assert all(counter.values()), f"zero count left in {name}"

    def test_checkpoint_roundtrip_preserves_equality(self):
        # The canonical (nonzero-only) serialization must restore an
        # aggregate that compares equal to the live one it snapshotted,
        # for zero-heavy and ordinary folds alike.
        for aggregate in (FleetAggregate(), folded([SUMMARIES[2]]),
                          folded(SUMMARIES)):
            restored = FleetAggregate.from_dict(aggregate.to_dict())
            assert restored == aggregate
            assert restored.merge(FleetAggregate()) == aggregate

    def test_sharded_fold_equals_serial_fold(self):
        serial = folded(SUMMARIES)
        shards = [folded(SUMMARIES[:1]), folded(SUMMARIES[1:3]),
                  folded(SUMMARIES[3:])]
        merged = FleetAggregate()
        for shard in shards:
            merged = merged.merge(shard)
        assert merged == serial

    def test_derived_views(self):
        aggregate = folded(SUMMARIES)
        assert aggregate.acr_fraction() == 0.75
        assert aggregate.optout_leak_fraction() == 0.0
        assert aggregate.mean_cadence_s("lg") == pytest.approx(15.0)

    def test_optout_leak_emits_a_critical_finding(self):
        leak = summary(phase="LIn-OOut", opted_in=False, acr_bytes=900,
                       upload=600, acr_packets=4, bursts=1,
                       cadence_sum=0, intervals=0)
        aggregate = folded([leak])
        violations = aggregate.findings.failed()
        assert len(violations) == 1
        finding = violations[0]
        assert finding.code == OPTOUT_VIOLATION_CODE
        assert finding.severity == "critical"
        entry = finding.evidence[0]
        assert entry.vendor == "lg" and entry.country == "uk"
        assert entry.phase == "LIn-OOut"
        assert entry.flow == "eu-acr4.alphonso.tv"
        assert "900 ACR bytes" in entry.text
        # Opted-out households that stay silent (and clean opted-in
        # runs) emit nothing — the baseline ledger is empty.
        assert not folded(SUMMARIES).findings

    def test_degradation_findings_feed_the_legacy_counter(self):
        finding = Finding.degradation("hh-0003", 3, None, 7, "bad magic")
        degraded = summary()
        degraded["findings"] = [finding, finding]
        aggregate = folded([degraded])
        assert aggregate.findings.total() == 2
        assert aggregate.findings.findings()[0].code == DEGRADATION_CODE
        # The report's ## Degradations table is derived from the same
        # fold, keyed by the finding's canonical evidence text.
        assert aggregate.degradations == {finding.evidence[0].text: 2}

    def test_merge_combines_findings_ledgers(self):
        degraded = summary()
        degraded["findings"] = [
            Finding.degradation("hh-0001", 1, None, 2, "torn header")]
        leak = summary(opted_in=False)
        a, b = folded([degraded]), folded([leak])
        merged = a.merge(b)
        assert merged.findings == a.findings + b.findings
        assert merged.findings.total() == 2
        assert a.merge(b).findings == b.merge(a).findings

    def test_checkpoint_roundtrip_preserves_findings(self):
        degraded = summary(opted_in=False)
        degraded["findings"] = [
            Finding.degradation("hh-0002", 2, 1, -1, "bad global magic")]
        aggregate = folded([degraded, summary()])
        restored = FleetAggregate.from_dict(aggregate.to_dict())
        assert restored == aggregate
        assert restored.findings == aggregate.findings
        assert restored.degradations == aggregate.degradations

    def test_old_checkpoint_without_findings_resumes_empty(self):
        state = folded(SUMMARIES).to_dict()
        del state["findings"]
        restored = FleetAggregate.from_dict(state)
        assert restored.findings == FindingsLedger()
        assert restored.households == 4


@pytest.mark.slow
class TestFleetRunner:
    POP = dict(households=4, seed=21, mixes=UK_QUICK)

    def test_parallel_report_matches_serial(self, tmp_path):
        population = PopulationSpec(**self.POP)
        cache = ResultCache(str(tmp_path), version="fleet-t1")
        serial = FleetRunner(cache=cache, jobs=1, shard_size=2).run(
            population)
        assert (serial.executed, serial.cached) == (4, 0)

        parallel = FleetRunner(
            cache=ResultCache(str(tmp_path), version="fleet-t1"),
            jobs=2, shard_size=2).run(population)
        assert (parallel.executed, parallel.cached) == (0, 4)

        assert parallel.aggregate == serial.aggregate
        assert render_population_report(parallel.aggregate, population) \
            == render_population_report(serial.aggregate, population)

    def test_cold_parallel_matches_serial(self):
        # No cache at all: parallel execution itself must be
        # deterministic, not just cache recall.
        population = PopulationSpec(households=3, seed=22,
                                    mixes=UK_QUICK)
        serial = FleetRunner(cache=None, jobs=1, shard_size=1).run(
            population)
        parallel = FleetRunner(cache=None, jobs=2, shard_size=1).run(
            population)
        assert parallel.aggregate == serial.aggregate

    def test_shard_size_does_not_change_aggregate(self, tmp_path):
        population = PopulationSpec(**self.POP)
        cache = ResultCache(str(tmp_path), version="fleet-t2")
        one = FleetRunner(cache=cache, jobs=1, shard_size=1).run(
            population)
        four = FleetRunner(cache=cache, jobs=1, shard_size=4).run(
            population)
        assert one.aggregate == four.aggregate

    def test_grown_fleet_only_runs_new_households(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="fleet-t3")
        FleetRunner(cache=cache, jobs=1).run(PopulationSpec(**self.POP))
        grown = FleetRunner(cache=cache, jobs=1).run(
            PopulationSpec(households=6, seed=21, mixes=UK_QUICK))
        assert (grown.executed, grown.cached) == (2, 4)

    def test_damaged_cached_capture_is_resimulated(self, tmp_path):
        population = PopulationSpec(**self.POP)
        cache = ResultCache(str(tmp_path), version="fleet-t5")
        first = FleetRunner(cache=cache, jobs=1).run(population)
        report = render_population_report(first.aggregate, population)
        household = next(iter(population))
        __, pcap_path = cache._paths(cache.key_for(
            household.label, household.diary_obj.duration_ns,
            household.seed))
        with open(pcap_path, "rb") as fileobj:
            raw = fileobj.read()

        def flip_one_byte():
            # Same length: only the CRC-32 in the meta catches it.
            with open(pcap_path, "wb") as fileobj:
                fileobj.write(raw[:-5] + bytes([raw[-5] ^ 0x40])
                              + raw[-4:])

        flip_one_byte()
        record, executed = household_record(household, cache)
        assert executed and record.pcap_bytes == raw
        flip_one_byte()
        again = FleetRunner(cache=cache, jobs=2, shard_size=2).run(
            population)
        assert (again.executed, again.cached) == (1, 3)
        assert render_population_report(again.aggregate, population) \
            == report

    def test_progress_reports_every_shard(self, tmp_path):
        population = PopulationSpec(**self.POP)
        cache = ResultCache(str(tmp_path), version="fleet-t4")
        seen = []
        FleetRunner(cache=cache, jobs=1, shard_size=2).run(
            population,
            progress=lambda done, total, ran, hit, aggregate: seen.append(
                (done, total, aggregate.households)))
        assert seen == [(1, 2, 2), (2, 2, 4)]


@pytest.mark.slow
class TestCliFleet:
    ARGS = ["fleet", "--households", "3", "--seed", "21",
            "--mix", "country=uk:1", "--mix", "diary=second_screen:1"]

    def test_fleet_report_stable_across_cache_states(self, tmp_path,
                                                     capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "# Fleet audit report" in cold
        assert "## Opt-out efficacy" in cold

        assert main(args + ["--jobs", "2"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_out_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "fleet.md"
        args = self.ARGS + ["--cache-dir", str(tmp_path / "cache"),
                            "--out", str(out_path)]
        assert main(args) == 0
        assert out_path.read_text() == capsys.readouterr().out

    def test_bad_mix_is_an_error(self, capsys):
        assert main(["fleet", "--mix", "vendor=philips:1"]) == 2
        assert "unknown vendor" in capsys.readouterr().err

    def test_bad_households_is_an_error(self, capsys):
        assert main(["fleet", "--households", "0"]) == 2
        assert "at least one household" in capsys.readouterr().err
