"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro.experiments
import repro.experiments.report
import repro.fleet
import repro.service
from packet_oracle import CapturedPacket, build_udp_frame, dump_bytes
from repro.cli import build_parser, main
from repro.findings import (Evidence, Finding, FindingsLedger,
                            write_findings_jsonl)
from repro.net import Ipv4Address, MacAddress


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")],
                         ids=["unset", "user-setting-wins"])
def test_import_asks_openblas_for_one_thread(preset, expected):
    """A fresh ``import repro`` sets ``OPENBLAS_NUM_THREADS`` before
    numpy loads, unless the user chose a count."""
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == expected


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.vendor == "lg"
        assert args.country == "uk"
        assert args.phase == "LIn-OIn"

    def test_invalid_vendor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--vendor", "philips"])

    def test_scorecard_vendors_selection_errors_exit_2(self, capsys):
        # Unknown names, paper-pair subsets (S checks need both) and
        # empty selections are usage errors, never silent no-ops.
        assert main(["scorecard", "--vendors", "philips"]) == 2
        assert "unknown vendors" in capsys.readouterr().err
        assert main(["scorecard", "--vendors", "samsung"]) == 2
        assert "need samsung and lg" in capsys.readouterr().err
        assert main(["report", "--vendors", " , "]) == 2
        assert "empty vendor selection" in capsys.readouterr().err

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_grid_defaults(self):
        args = build_parser().parse_args(["grid"])
        assert args.jobs == 1
        assert args.seed == 7
        assert args.filter == []
        assert args.minutes == 60
        assert not args.no_cache
        assert args.cache_dir is None

    def test_grid_filters_accumulate(self):
        args = build_parser().parse_args(
            ["grid", "--filter", "vendor=lg", "--filter", "country=uk"])
        assert args.filter == ["vendor=lg", "country=uk"]

    def test_scorecard_and_report_take_grid_options(self):
        assert build_parser().parse_args(
            ["scorecard", "--jobs", "4"]).jobs == 4
        assert build_parser().parse_args(
            ["report", "--seed", "9"]).seed == 9


def _fabricated_checks(s2_passes):
    """A tiny scorecard stand-in so the exit-code matrix needs no grid."""
    return [
        Finding(code="S1", title="fabricated pass", severity="high",
                passed=True, evidence=(Evidence(text="ok"),)),
        Finding(code="S2", title="fabricated verdict", severity="medium",
                passed=s2_passes, evidence=(Evidence(text="measured"),)),
    ]


class TestScorecardExitCodes:
    """The documented matrix: 0 all-pass, 1 any-fail, 2 bad --vendors.

    (Exit 2 is covered by ``test_scorecard_vendors_selection_errors``
    above; these two pin the verdict-driven codes without running the
    simulation grid.)
    """

    def test_all_checks_passing_exits_0(self, monkeypatch, capsys):
        monkeypatch.setattr(repro.experiments, "run_all_checks",
                            lambda **kwargs: _fabricated_checks(True))
        assert main(["scorecard"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] S1: fabricated pass" in out
        assert "[FAIL]" not in out

    def test_any_failed_finding_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(repro.experiments, "run_all_checks",
                            lambda **kwargs: _fabricated_checks(False))
        assert main(["scorecard"]) == 1
        assert "[FAIL] S2: fabricated verdict" in \
            capsys.readouterr().out

    def test_findings_out_exports_the_ledger(self, monkeypatch,
                                             tmp_path, capsys):
        monkeypatch.setattr(repro.experiments, "run_all_checks",
                            lambda **kwargs: _fabricated_checks(False))
        path = str(tmp_path / "findings.jsonl")
        assert main(["scorecard", "--findings-out", path]) == 1
        capsys.readouterr()
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert lines[0]["record"] == "meta" and lines[0]["schema"] == 1
        assert lines[0]["vendors"] == "all" and "jobs" not in lines[0]
        assert [record["code"] for record in lines[1:]] == ["S1", "S2"]
        # A self-diff of the export reports zero changes and exits 0.
        assert main(["findings", "diff", path, path]) == 0
        assert "no changes" in capsys.readouterr().out


class TestFindingsDiffCommand:
    def _export(self, path, findings):
        write_findings_jsonl(str(path), FindingsLedger(findings))
        return str(path)

    def test_regression_exits_1(self, tmp_path, capsys):
        old = self._export(tmp_path / "old.jsonl",
                           _fabricated_checks(True))
        new = self._export(tmp_path / "new.jsonl",
                           _fabricated_checks(False))
        assert main(["findings", "diff", old, new]) == 1
        out = capsys.readouterr().out
        assert "regressions: 1" in out and "S2" in out
        # The reverse direction only resolves — exit 0.
        assert main(["findings", "diff", new, old]) == 0
        assert "resolved: 1" in capsys.readouterr().out

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        path = self._export(tmp_path / "ok.jsonl",
                            _fabricated_checks(True))
        missing = str(tmp_path / "missing.jsonl")
        assert main(["findings", "diff", missing, path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_file_exits_2(self, tmp_path, capsys):
        good = self._export(tmp_path / "ok.jsonl",
                            _fabricated_checks(True))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["findings", "diff", good, str(bad)]) == 2
        assert "invalid findings file" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        '{"record": "finding", "title": "t", "severity": "low", '
        '"passed": false, "evidence": []}',
        '{"record": "finding", "code": "S2", "title": "t", '
        '"severity": "low", "passed": false, "evidence": [3]}',
        "[" * 100_000,
        '{"record": "finding", "code": "S2", "title": "t", '
        '"severity": "urgent", "passed": false, "evidence": []}',
    ], ids=["missing-code", "numeric-evidence", "nested-arrays",
            "unknown-severity"])
    def test_malformed_finding_exits_2(self, tmp_path, capsys, line):
        good = self._export(tmp_path / "ok.jsonl",
                            _fabricated_checks(True))
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record": "meta", "schema": 1}\n' + line + "\n",
                       encoding="utf-8")
        assert main(["findings", "diff", good, str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid findings file: line 2: ")

    def test_diff_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["findings"])


class TestRunCommand:
    def test_run_and_audit_roundtrip(self, tmp_path, capsys):
        pcap = str(tmp_path / "cap.pcap")
        code = main(["run", "--vendor", "lg", "--minutes", "8",
                     "--seed", "3", "--out", pcap])
        assert code == 0
        out = capsys.readouterr().out
        assert "captured" in out and "OK" in out

        code = main(["audit", pcap])
        assert code == 0
        out = capsys.readouterr().out
        assert "eu-acr" in out
        assert "validated" in out

    def test_run_without_out_prints_audit(self, capsys):
        code = main(["run", "--vendor", "samsung", "--minutes", "8",
                     "--scenario", "idle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ACR domain" in out or "no ACR candidate" in out

    def test_optout_run_shows_no_acr(self, capsys):
        code = main(["run", "--minutes", "8", "--phase", "LOut-OOut"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no ACR candidate domains" in out


def _udp_capture(src, dst, corrupt_ihl=False):
    """A two-packet pcap of UDP frames between two addresses."""
    frame = build_udp_frame(
        MacAddress.parse("02:00:00:00:00:01"),
        MacAddress.parse("02:00:00:00:00:02"), Ipv4Address.parse(src),
        Ipv4Address.parse(dst), 40000, 7777, b"payload")
    bad = bytearray(frame)
    if corrupt_ihl:
        bad[14] = 0x41  # IHL = 4 bytes, below the 20-byte minimum
    return dump_bytes([CapturedPacket(1_000_000, frame),
                       CapturedPacket(2_000_000, bytes(bad))])


def _assert_usage_error(capsys, argv, reason):
    """Exit 2 with one ``error:`` line on stderr and no traceback;
    returns what went to stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert reason in err
    assert "Traceback" not in err
    return captured.out


class TestBadInputExits2:
    """Bad input and unwritable outputs end in exit 2 and one line."""

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file or directory"),
        (b"this is a text file, not a capture", "bad pcap magic"),
        (_udp_capture("192.168.1.2", "203.0.113.1")[:-5],
         "truncated pcap record data"),
        (_udp_capture("192.168.1.2", "203.0.113.1", corrupt_ihl=True),
         "bad IHL: 4"),
        (_udp_capture("198.51.100.7", "203.0.113.1"),
         "no private addresses in capture"),
    ], ids=["missing", "not-pcap", "cut", "bad-frame", "no-tv"])
    def test_audit(self, tmp_path, capsys, content, reason):
        path = tmp_path / "capture.pcap"
        if content is not None:
            path.write_bytes(content)
        _assert_usage_error(capsys, ["audit", str(path)], reason)

    def test_audit_of_a_directory(self, tmp_path, capsys):
        _assert_usage_error(capsys, ["audit", str(tmp_path)],
                            "Is a directory")

    def test_run_too_short(self, capsys):
        _assert_usage_error(capsys, ["run", "--minutes", "0"],
                            "experiment too short for the workflow")

    def test_run_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "capture.pcap"
        stdout = _assert_usage_error(
            capsys, ["run", "--minutes", "1", "--out", str(out)],
            f"cannot write --out {out}: no such directory")
        assert "captured" not in stdout and "wrote" not in stdout

    @pytest.mark.parametrize("command, option", [
        ("run", "--out"),
        ("grid", "--metrics-out"), ("fleet", "--metrics-out"),
        ("fleet", "--out"), ("fleet", "--findings-out"),
        ("serve", "--metrics-out"), ("serve", "--out"),
        ("serve", "--findings-out"), ("serve", "--checkpoint-dir"),
        ("scorecard", "--findings-out"),
    ], ids=lambda value: value.lstrip("-"))
    def test_unwritable_output_fails_before_simulating(
            self, tmp_path, capsys, monkeypatch, command, option):
        monkeypatch.setattr(repro.experiments, "run_all_checks",
                            lambda **kwargs: pytest.fail("simulated"))
        # An output file in a missing directory; a --checkpoint-dir,
        # which serve creates, under a regular file.  (``run`` prints
        # its "running" line before it simulates, so an empty stdout
        # shows it did not.)
        (tmp_path / "file").write_text("")
        parent = "file" if option == "--checkpoint-dir" else "missing"
        path = tmp_path / parent / "out"
        argv = [command, option, str(path)]
        if command not in ("run", "scorecard"):
            argv += ["--cache-dir", str(tmp_path / "cache")]
        assert _assert_usage_error(capsys, argv, str(path)) == ""
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("argv", [
        ["scorecard"],
        ["fleet", "--households", "1", "--mix", "country=uk:1"],
    ], ids=lambda argv: argv[0])
    def test_output_unwritable_after_the_run(self, tmp_path, capsys,
                                             monkeypatch, argv):
        monkeypatch.setattr(repro.experiments, "run_all_checks",
                            lambda **kwargs: _fabricated_checks(True))
        # A directory where the file should go passes the up-front
        # check and fails only when the run's output is written.
        assert main(argv + ["--findings-out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out and "Traceback" not in captured.err
        *progress, last = captured.err.splitlines()
        assert last.startswith("error: ") and "Is a directory" in last
        assert not any(line.startswith("error: ") for line in progress)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", ["grid", "fleet", "serve",
                                         "scorecard", "report"])
    def test_jobs_below_one(self, tmp_path, capsys, monkeypatch, command,
                            jobs):
        def simulated(*args, **kwargs):
            pytest.fail("simulated")

        for owner, name in ((repro.experiments, "run_all_checks"),
                            (repro.experiments.report, "generate"),
                            (repro.experiments.grid.GridRunner, "run"),
                            (repro.fleet.FleetRunner, "run"),
                            (repro.service, "serve_fleet")):
            monkeypatch.setattr(owner, name, simulated)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = [command, "--jobs", jobs]
        if command in ("grid", "fleet", "serve"):
            argv += ["--cache-dir", str(tmp_path / "cache")]
        assert _assert_usage_error(
            capsys, argv, f"--jobs must be at least 1, got {jobs}") == ""
        assert not (tmp_path / "cache").exists()

    def test_serve_negative_checkpoint_interval(self, capsys):
        _assert_usage_error(
            capsys, ["serve", "--checkpoint-every", "-1", "--no-cache"],
            "checkpoint interval must not be negative")
