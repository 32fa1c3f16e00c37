"""Tests for the first-class findings layer: model, ledger, export,
diff.

The ledger suite mirrors ``tests/test_obs.py``'s snapshot discipline:
ledgers must combine associatively and commutatively with
``FindingsLedger()`` as the identity, which is what makes a
``--findings-out`` export byte-identical across ``--jobs`` counts.
"""

import dataclasses
import json
import os
import pickle
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzz_inputs import NESTED_LINE, damaged_jsonl
from repro.experiments.findings import (ledger_from_checks, render_checks,
                                        run_all_checks)
from repro.findings import (DEGRADATION_CODE, FINDINGS_SCHEMA_VERSION,
                            OPTOUT_VIOLATION_CODE, SEVERITIES, Evidence,
                            Finding, FindingsLedger, diff_records,
                            ledger_to_jsonl, read_findings_jsonl,
                            record_identity, severity_rank,
                            write_findings_jsonl)
from repro.findings.model import EVIDENCE_TYPES

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts"))
import check_findings  # noqa: E402
from check_findings import check_lines  # noqa: E402


def _finding(code="S1", severity="medium", passed=True, text="ok",
             **pointers):
    return Finding(code=code, title=f"check {code}", severity=severity,
                   confidence=0.9, passed=passed,
                   evidence=(Evidence(text=text, **pointers),))


# -- the model ----------------------------------------------------------------


class TestModel:
    def test_severity_scale_is_total(self):
        ranks = [severity_rank(name) for name in SEVERITIES]
        assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
        with pytest.raises(KeyError):
            severity_rank("catastrophic")

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty code"):
            Finding(code="", title="x")
        with pytest.raises(ValueError, match="unknown severity"):
            Finding(code="X", title="x", severity="urgent")
        with pytest.raises(ValueError, match="confidence"):
            Finding(code="X", title="x", confidence=1.5)
        with pytest.raises(ValueError, match="confidence"):
            Finding(code="X", title="x", confidence=-0.1)

    def test_evidence_list_coerced_to_tuple(self):
        finding = Finding(code="X", title="x",
                          evidence=[Evidence(text="a")])
        assert isinstance(finding.evidence, tuple)
        assert hash(finding) == hash(finding)

    def test_findings_are_hashable_and_picklable(self):
        finding = _finding(household=3, segment=1)
        assert {finding: 2}[pickle.loads(pickle.dumps(finding))] == 2

    def test_status_line_is_the_repr(self):
        passed = _finding(code="S1", passed=True)
        failed = _finding(code="S2", passed=False)
        assert repr(passed) == passed.status_line() \
            == "[PASS] S1: check S1"
        assert repr(failed) == failed.status_line() \
            == "[FAIL] S2: check S2"

    def test_evidence_text_joins_non_empty_texts(self):
        finding = Finding(code="X", title="x", evidence=(
            Evidence(text="first"), Evidence(text="", household=1),
            Evidence(text="second")))
        assert finding.evidence_text() == "first; second"

    def test_evidence_roundtrip_and_unknown_field_rejection(self):
        entry = Evidence(text="t", capture="cell", household=4,
                         segment=2, record_start=0, record_end=7)
        assert Evidence.from_dict(entry.to_dict()) == entry
        assert "vendor" not in entry.to_dict()  # None pointers elided
        with pytest.raises(ValueError, match="unknown evidence"):
            Evidence.from_dict({"text": "t", "severity": "high"})

    def test_finding_dict_roundtrip(self):
        finding = _finding(code="X2", severity="critical", passed=False,
                           vendor="lg", country="uk")
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_degradation_constructor_matches_legacy_evidence(self):
        finding = Finding.degradation("hh-0007", 7, 3, 12, "bad magic")
        assert finding.code == DEGRADATION_CODE
        assert finding.severity == "medium" and not finding.passed
        entry = finding.evidence[0]
        assert entry.text == ("household 7 [hh-0007] segment 3 "
                              "record 12: bad magic")
        assert (entry.household, entry.segment, entry.record_start,
                entry.record_end) == (7, 3, 12, 12)

    def test_degradation_global_header_has_no_record_range(self):
        finding = Finding.degradation("hh-0001", 1, None, -1, "torn")
        assert finding.evidence[0].text \
            == "household 1 [hh-0001] global header: torn"
        assert finding.evidence[0].record_start is None

    def test_optout_violation_constructor(self):
        finding = Finding.optout_violation(
            "hh-0003", 3, "roku", "us", "LOut-OOut", 4096,
            ["b.roku.example", "a.roku.example"])
        assert finding.code == OPTOUT_VIOLATION_CODE
        assert finding.severity == "critical" and not finding.passed
        entry = finding.evidence[0]
        assert entry.text == ("4096 ACR bytes to a.roku.example, "
                              "b.roku.example while opted out")
        assert entry.flow == "a.roku.example"  # sorted first


# -- the ledger algebra -------------------------------------------------------


_FINDING_POOL = st.builds(
    _finding,
    code=st.sampled_from(["S1", "S2", "DEG", "OPTOUT"]),
    severity=st.sampled_from(SEVERITIES),
    passed=st.booleans(),
    text=st.sampled_from(["ok", "violated"]),
    household=st.sampled_from([None, 0, 1]))

_LEDGER_POOL = st.lists(_FINDING_POOL, max_size=8).map(FindingsLedger)


class TestLedger:
    def test_fold_rejects_non_findings_and_negative_counts(self):
        ledger = FindingsLedger()
        with pytest.raises(TypeError, match="folds Finding"):
            ledger.fold("S1")
        with pytest.raises(ValueError, match="negative"):
            ledger.fold(_finding(), count=-1)

    def test_zero_count_is_dropped_not_materialized(self):
        ledger = FindingsLedger()
        ledger.fold(_finding(), count=0)
        assert ledger == FindingsLedger() and not ledger

    def test_duplicates_dedupe_into_counts(self):
        finding = _finding(code="DEG", passed=False)
        ledger = FindingsLedger([finding, finding, finding])
        assert len(ledger) == 1 and ledger.total() == 3
        assert list(ledger) == [(finding, 3)]
        assert ledger.failed() == [finding]

    def test_iteration_is_canonically_sorted(self):
        low = _finding(code="Z9", severity="low", passed=False)
        high = _finding(code="Z9", severity="critical", passed=False)
        other = _finding(code="A1")
        ledger = FindingsLedger([low, other, high])
        assert ledger.findings() == [other, high, low]

    @settings(max_examples=50, deadline=None)
    @given(a=_LEDGER_POOL, b=_LEDGER_POOL, c=_LEDGER_POOL)
    def test_merge_is_associative_and_commutative(self, a, b, c):
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))
        assert a.merge(FindingsLedger()) == a
        assert sum((a, b, c), FindingsLedger()) == a.merge(b.merge(c))

    def test_merge_leaves_operands_untouched(self):
        a = FindingsLedger([_finding(code="A")])
        b = FindingsLedger([_finding(code="B")])
        merged = a + b
        assert len(merged) == 2 and len(a) == 1 and len(b) == 1

    @settings(max_examples=50, deadline=None)
    @given(ledger=_LEDGER_POOL)
    def test_jsonable_roundtrip(self, ledger):
        records = ledger.to_jsonable()
        assert records == json.loads(json.dumps(records))
        assert FindingsLedger.from_jsonable(records) == ledger

    def test_ledger_pickles_across_process_boundaries(self):
        ledger = FindingsLedger([_finding(code="DEG", passed=False),
                                 _finding(code="S1")])
        assert pickle.loads(pickle.dumps(ledger)) == ledger

    def test_repr_summarizes(self):
        ledger = FindingsLedger([_finding(passed=False),
                                 _finding(passed=False)])
        assert repr(ledger) == \
            "FindingsLedger(1 distinct, 2 total, 2 failing)"


# -- export + schema checker --------------------------------------------------


class TestExport:
    def _ledger(self):
        return FindingsLedger([
            _finding(code="S1", passed=True),
            _finding(code="DEG", severity="medium", passed=False,
                     text="household 0 [hh-0000] record 3: torn",
                     capture="hh-0000", household=0, record_start=3,
                     record_end=3),
            _finding(code="DEG", severity="medium", passed=False,
                     text="household 0 [hh-0000] record 3: torn",
                     capture="hh-0000", household=0, record_start=3,
                     record_end=3),
        ])

    def test_meta_first_then_sorted_findings(self):
        body = ledger_to_jsonl(self._ledger(), {"command": "fleet"})
        lines = body.splitlines()
        meta = json.loads(lines[0])
        assert meta == {"record": "meta",
                        "schema": FINDINGS_SCHEMA_VERSION,
                        "command": "fleet"}
        codes = [json.loads(line)["code"] for line in lines[1:]]
        assert codes == sorted(codes) == ["DEG", "S1"]
        assert json.loads(lines[1])["count"] == 2
        assert body.endswith("\n")

    def test_export_passes_the_schema_checker(self):
        body = ledger_to_jsonl(self._ledger(), {"seed": 7})
        assert check_lines(body.splitlines()) == 2

    def test_checker_rejects_jobs_in_meta(self):
        body = ledger_to_jsonl(self._ledger(), {"jobs": 8})
        with pytest.raises(ValueError, match="jobs-invariant"):
            check_lines(body.splitlines())

    def test_checker_rejects_out_of_order_records(self):
        lines = ledger_to_jsonl(self._ledger()).splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(ValueError, match="canonical order"):
            check_lines(lines)

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "findings.jsonl")
        ledger = self._ledger()
        write_findings_jsonl(path, ledger, {"command": "fleet",
                                            "seed": 7})
        meta, records = read_findings_jsonl(path)
        assert meta["command"] == "fleet" and meta["seed"] == 7
        assert len(records) == 2
        assert FindingsLedger.from_jsonable(records) == ledger

    def test_reader_rejects_malformed_files(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as fileobj:
            fileobj.write("")
        with pytest.raises(ValueError, match="line 1: empty file"):
            read_findings_jsonl(path)
        with open(path, "w", encoding="utf-8") as fileobj:
            fileobj.write('{"record": "finding"}\n')
        with pytest.raises(ValueError, match="must be 'meta'"):
            read_findings_jsonl(path)
        with open(path, "w", encoding="utf-8") as fileobj:
            fileobj.write('{"record": "meta", "schema": 99}\n')
        with pytest.raises(ValueError, match="unsupported schema"):
            read_findings_jsonl(path)
        with open(path, "w", encoding="utf-8") as fileobj:
            fileobj.write('{"record": "meta", "schema": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2: not JSON"):
            read_findings_jsonl(path)


#: A valid export: passing and failing findings, several severities,
#: evidence with and without structured pointers.
EXPORT_LINES = ledger_to_jsonl(FindingsLedger([
    _finding(code="S1"),
    _finding(code="S2", severity="high", passed=False, capture="lg-uk",
             vendor="lg"),
    _finding(code="DEG", passed=False, household=3, record_start=1,
             record_end=2),
]), {"command": "fleet"}).splitlines()


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fileobj:
        fileobj.write("\n".join(lines) + "\n")


class TestMalformedExports:
    """Whatever an export holds, the reader, the diff and the schema
    checker end in a result or in ``ValueError``: never a traceback."""

    def test_evidence_types_cover_the_model(self):
        assert set(EVIDENCE_TYPES) == {
            spec.name for spec in dataclasses.fields(Evidence)}

    def test_checker_schema_matches_the_model(self):
        """The schema checker runs without ``src`` on the path, so it
        keeps its own copies of the severity scale and evidence types;
        they must not drift from the model's."""
        assert check_findings.SEVERITIES == SEVERITIES
        assert check_findings.EVIDENCE_POINTERS == {
            key: value for key, value in EVIDENCE_TYPES.items()
            if key != "text"}

    @pytest.mark.parametrize("field, value, message", [
        ("code", None, "non-empty string 'code'"),
        ("code", "", "non-empty string 'code'"),
        ("title", 3, "'title' must be a string"),
        ("severity", "urgent", "unknown severity 'urgent'"),
        ("severity", ["high"], "unknown severity"),
        ("passed", "yes", "'passed' must be a bool"),
        ("evidence", {"text": "x"}, "list of objects"),
        ("evidence", [7], "list of objects"),
        ("evidence", [{"household": "3"}], "'household' must be int"),
        ("evidence", [{"household": [3]}], "'household' must be int"),
        ("evidence", [{"bogus": 1}], "unknown evidence field 'bogus'"),
    ])
    def test_reader_rejects_mistyped_fields(self, tmp_path, field, value,
                                            message):
        record = json.loads(EXPORT_LINES[1])
        if value is None:
            del record[field]
        else:
            record[field] = value
        path = str(tmp_path / "bad.jsonl")
        _write_lines(path, [EXPORT_LINES[0], json.dumps(record)])
        with pytest.raises(ValueError, match=f"line 2: .*{message}"):
            read_findings_jsonl(path)

    def test_nested_line_is_not_json(self, tmp_path):
        path = str(tmp_path / "nested.jsonl")
        _write_lines(path, [EXPORT_LINES[0], NESTED_LINE])
        with pytest.raises(ValueError, match="line 2: not JSON"):
            read_findings_jsonl(path)
        with pytest.raises(ValueError, match="line 2: not JSON"):
            check_lines([EXPORT_LINES[0], NESTED_LINE])

    @given(old=st.just(EXPORT_LINES) | damaged_jsonl(EXPORT_LINES),
           new=damaged_jsonl(EXPORT_LINES))
    @settings(max_examples=300, deadline=None)
    def test_damaged_exports_diff_or_refuse(self, old, new):
        with tempfile.TemporaryDirectory() as directory:
            paths = [os.path.join(directory, name)
                     for name in ("old.jsonl", "new.jsonl")]
            for path, lines in zip(paths, (old, new)):
                _write_lines(path, lines)
            try:
                records = [read_findings_jsonl(path)[1] for path in paths]
            except ValueError:
                return
            diff_records(*records).render(*paths)

    @given(lines=damaged_jsonl(EXPORT_LINES))
    @example(lines=[EXPORT_LINES[0], NESTED_LINE])
    @settings(max_examples=300, deadline=None)
    def test_checker_validates_or_refuses(self, lines):
        try:
            check_lines(lines)
        except ValueError:
            pass


# -- the diff -----------------------------------------------------------------


def _records(*findings):
    return FindingsLedger(findings).to_jsonable()


class TestDiff:
    def test_identity_excludes_text_and_confidence(self):
        old = _records(_finding(code="X", passed=False,
                                text="measured 3KB", household=1))
        new = _records(Finding(
            code="X", title="check X", severity="medium",
            confidence=0.5, passed=False,
            evidence=(Evidence(text="measured 9KB", household=1),)))
        assert record_identity(old[0]) == record_identity(new[0])
        diff = diff_records(old, new)
        assert not diff.has_changes and not diff.is_regression

    def test_self_diff_is_empty(self):
        records = _records(_finding(code="A", passed=False),
                           _finding(code="B", passed=True))
        diff = diff_records(records, records)
        assert not diff.has_changes
        assert diff.render("old", "new") \
            == "findings diff: no changes between old and new\n"

    def test_new_failure_is_a_regression(self):
        old = _records(_finding(code="A", passed=True))
        new = _records(_finding(code="A", passed=True),
                       _finding(code="B", passed=False, household=2))
        diff = diff_records(old, new)
        assert diff.is_regression
        assert [r["code"] for r in diff.regressions] == ["B"]
        rendered = diff.render("old.jsonl", "new.jsonl")
        assert "regressions: 1" in rendered
        assert "+ [medium] B: check B (household=2)" in rendered

    def test_resolved_only_is_not_a_regression(self):
        old = _records(_finding(code="A", passed=False))
        new = _records(_finding(code="A", passed=True))
        diff = diff_records(old, new)
        assert diff.has_changes and not diff.is_regression
        assert [r["code"] for r in diff.resolved] == ["A"]

    def test_severity_escalation_is_a_regression(self):
        old = _records(_finding(code="A", severity="low", passed=False))
        new = _records(_finding(code="A", severity="high",
                                passed=False))
        diff = diff_records(old, new)
        assert diff.severity_changes and diff.is_regression
        assert "~ A: low -> high" in diff.render("o", "n")
        # The opposite direction is a change but not a regression.
        assert not diff_records(new, old).is_regression

    def test_passing_findings_never_enter_the_diff(self):
        old = _records(_finding(code="A", passed=True))
        new = _records(_finding(code="B", passed=True))
        assert not diff_records(old, new).has_changes


# -- the scorecard surface (satellites) ---------------------------------------


class TestRenderChecks:
    def test_empty_list_renders_empty_string(self):
        assert render_checks([]) == ""

    def test_single_check_renders_status_and_evidence(self):
        check = _finding(code="S1", passed=True, text="11 batches")
        assert render_checks([check]) == \
            "[PASS] S1: check S1\n       11 batches\n"

    def test_failed_check_uses_the_same_formatter(self):
        check = _finding(code="S5", passed=False, text="leak")
        rendered = render_checks([check])
        assert rendered.splitlines()[0] == check.status_line()

    def test_ledger_from_checks(self):
        checks = [_finding(code="S1"), _finding(code="S2", passed=False)]
        ledger = ledger_from_checks(checks)
        assert isinstance(ledger, FindingsLedger)
        assert ledger.findings() == checks
        assert ledger.failed() == [checks[1]]


@pytest.mark.slow
class TestScorecardJobsForwarding:
    def test_parallel_verdicts_match_serial(self):
        """``run_all_checks(jobs=N)`` must prefetch through the pool and
        produce verdicts identical to a serial run (the second call
        rides the grid cache the first one warmed)."""
        serial = {check.code: check.passed for check in run_all_checks()}
        parallel = {check.code: check.passed
                    for check in run_all_checks(jobs=2)}
        assert parallel == serial
        assert {"S1", "S12", "X1", "X6"} <= set(serial)
