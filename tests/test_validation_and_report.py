"""Tests for validation scripts and the EXPERIMENTS.md report generator
building blocks."""

import copy

import pytest

from packet_oracle import iter_records
from repro.experiments.report import (cadence_section, cdf_section,
                                      scorecard_section)
from repro.experiments.tables_volumes import (PAPER_TABLE2, PAPER_TABLE4,
                                              paper_reference)
from repro.net.pcap import GLOBAL_HEADER, RECORD_HEADER
from repro.sim import minutes
from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,
                           Vendor, run_experiment, validate)
from repro.testbed.validation import ValidationReport


class TestValidationReport:
    def test_ok_when_no_failures(self):
        report = ValidationReport("x")
        report.record("check-a", True)
        assert report.ok
        assert report.checks == ["check-a"]

    def test_failure_recorded_with_detail(self):
        report = ValidationReport("x")
        report.record("check-a", False, "broke")
        assert not report.ok
        assert report.failures == ["check-a: broke"]

    def test_repr_shows_state(self):
        report = ValidationReport("lg-uk")
        assert "OK" in repr(report)
        report.record("c", False)
        assert "FAILED" in repr(report)


class TestValidationOnRealRuns:
    def test_every_scenario_validates(self):
        for scenario in Scenario:
            spec = ExperimentSpec(Vendor.LG, Country.UK, scenario,
                                  Phase.LIN_OIN, duration_ns=minutes(6))
            result = run_experiment(spec, seed=1)
            report = validate(result)
            assert report.ok, (scenario, report.failures)

    def test_optout_validation_checks_client_silence(self):
        spec = ExperimentSpec(Vendor.SAMSUNG, Country.UK,
                              Scenario.LINEAR, Phase.LOUT_OOUT,
                              duration_ns=minutes(6))
        result = run_experiment(spec, seed=1)
        report = validate(result)
        assert "opted-out-client-silent" in report.checks
        assert report.ok


@pytest.fixture(scope="module")
def short_run():
    return run_experiment(ExperimentSpec(
        Vendor.LG, Country.UK, Scenario.LINEAR, Phase.LIN_OIN,
        duration_ns=minutes(6)), seed=1)


def _records(raw):
    """The capture's records as raw byte strings, header included."""
    return [(timestamp, raw[offset - RECORD_HEADER.size:offset + incl])
            for timestamp, offset, incl, __ in iter_records(raw)]


def _with_records(result, records, packet_count=None):
    broken = copy.copy(result)
    broken.pcap_bytes = result.pcap_bytes[:GLOBAL_HEADER.size] + b"".join(
        record for __, record in records)
    if packet_count is not None:
        broken.packet_count = packet_count
    return broken


def _failed(result):
    return {failure.split(":")[0] for failure in validate(result).failures}


class TestValidationCatchesBrokenCaptures:
    """Each workflow check fails on the capture fault it exists for."""

    def test_dropped_record_fails_roundtrip(self, short_run):
        records = _records(short_run.pcap_bytes)
        assert _failed(_with_records(short_run, records[:-1])) == \
            {"pcap-roundtrip"}

    @pytest.mark.parametrize("into", ["data", "header"])
    def test_cut_capture_fails_roundtrip(self, short_run, into):
        raw = short_run.pcap_bytes
        last = len(_records(raw)[-1][1])
        cut = copy.copy(short_run)
        # Inside the last record's data or header: the walk stops at
        # that record with the decode's error.
        cut.pcap_bytes = raw[:-5] if into == "data" \
            else raw[:len(raw) - last + 8]
        assert _failed(cut) == {"pcap-roundtrip"}

    def test_swapped_records_fail_ordering(self, short_run):
        records = _records(short_run.pcap_bytes)
        first = next(i for i in range(len(records) - 1)
                     if records[i][0] < records[i + 1][0])
        records[first], records[first + 1] = \
            records[first + 1], records[first]
        assert _failed(_with_records(short_run, records)) == \
            {"timestamps-sorted"}

    def test_empty_capture_fails_nonempty(self, short_run):
        failed = _failed(_with_records(short_run, [], packet_count=0))
        assert "capture-nonempty" in failed
        assert "pcap-roundtrip" not in failed


class TestPaperReferenceData:
    def test_reference_lookup(self):
        assert paper_reference(Country.UK, Phase.LIN_OIN) is PAPER_TABLE2
        assert paper_reference(Country.US, Phase.LIN_OIN) is PAPER_TABLE4

    def test_table2_values_from_paper(self):
        assert PAPER_TABLE2["eu-acrX.alphonso.tv"][1] == 4759.7
        assert PAPER_TABLE2["acr-eu-prd.samsungcloud.tv"][0] is None

    def test_every_row_has_six_scenarios(self):
        for table in (PAPER_TABLE2, PAPER_TABLE4):
            for domain, values in table.items():
                assert len(values) == 6, domain


class TestReportSections:
    """Sections render over the shared cache (cells already simulated by
    other tests in the session where possible)."""

    def test_scorecard_section_all_pass(self):
        lines = "\n".join(scorecard_section(7))
        assert "FAIL" not in lines
        assert "S1" in lines and "S12" in lines

    def test_cdf_section_shows_cadences(self):
        lines = "\n".join(cdf_section(7))
        assert "UK" in lines and "US" in lines

    def test_cadence_section_periods(self):
        lines = "\n".join(cadence_section(7))
        assert "15" in lines and "60" in lines
