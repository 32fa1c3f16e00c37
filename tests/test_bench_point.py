"""Tests for folding perfbench result files into a BENCH point."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts"))
import bench_report  # noqa: E402
from bench_report import PointError, fold_results, write_point  # noqa: E402


def result(workload, seed, trace=0, rate=10.0, code="c1", bench="b1",
           nproc=2, failed_ratio=0.0):
    """A result file as ``perfbench/run.py`` writes it."""
    record = {
        "failed_ratio": failed_ratio,
        "failures": [],
        "provenance": {"workload": workload, "seed": seed, "trace": trace,
                       "code_version": code, "bench_version": bench,
                       "nproc": nproc, "python": "3.11.7"},
        "result": {"metrics": {
            "setup_s": {"value": 4.0 + seed / 10, "unit": "s"},
            "ops_per_cpu_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": 200.0, "unit": "MB"}}},
    }
    if trace:
        record["result"]["metrics"] = {
            "trace.body_s": {"value": 1.5, "unit": "s"}}
        record["trace"] = {
            "metrics": {"trace.body_s": 1.5},
            "layers": [
                {"layer": "body", "n": 1, "p50": 1500.0, "self_ms": 15.0,
                 "self_share": 0.01, "total_ms": 1500.0},
                {"layer": "testbed.session", "n": 32, "p50": 40.0,
                 "p99": 60.0, "self_ms": 1485.0, "self_share": 0.99,
                 "total_ms": 1485.0}]}
    return record


def write_results(directory, records):
    for record in records:
        prov = record["provenance"]
        name = (f"{prov['workload']}-seed{prov['seed']}-"
                f"trace{prov['trace']}.json")
        (directory / name).write_text(json.dumps(record), encoding="utf-8")


def full_set(workload="fleet-warm", seeds=(1, 2, 3, 4, 5), **kwargs):
    return [result(workload, seed, rate=float(seed), **kwargs)
            for seed in seeds] + [result(workload, 1, trace=1, **kwargs)]


class TestFold:
    def test_medians_quartiles_and_layer_table(self, tmp_path):
        write_results(tmp_path, full_set() + full_set("fleet-cold"))
        point = fold_results(str(tmp_path))
        assert sorted(point["workloads"]) == ["fleet-cold", "fleet-warm"]
        entry = point["workloads"]["fleet-warm"]
        assert (entry["code_version"], entry["bench_version"],
                entry["nproc"]) == ("c1", "b1", 2)
        assert entry["seeds"] == [1, 2, 3, 4, 5]
        assert entry["metrics"]["ops_per_cpu_s"] == {
            "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0,
            "unit": "1/s"}
        assert entry["metrics"]["setup_s"]["median"] == pytest.approx(4.3)
        assert entry["trace_seed"] == 1
        assert entry["trace_body_s"] == 1.5
        assert entry["layers"][1] == {"layer": "testbed.session", "n": 32,
                                      "p50": 40.0, "self_share": 0.99}

    def test_other_files_are_ignored(self, tmp_path):
        write_results(tmp_path, full_set())
        (tmp_path / "notes.txt").write_text("x", encoding="utf-8")
        assert list(fold_results(str(tmp_path))["workloads"]) == \
            ["fleet-warm"]

    @pytest.mark.parametrize("records, message", [
        (full_set(seeds=(1, 2, 3, 4)), "4 trace-0 seed"),
        (full_set()[:-1], "no trace-1 result"),
        (full_set() + [result("fleet-warm", 6, code="c2")],
         r"mixed code_version: \['c1', 'c2'\]"),
        (full_set() + [result("fleet-cold", 1, bench="b2")],
         "mixed bench_version"),
        (full_set() + [result("fleet-warm", 6, nproc=1)], "mixed nproc"),
        (full_set() + [result("fleet-warm", 6, failed_ratio=0.1)],
         "failed_ratio 0.1 > 0"),
        ([], "no perfbench result files"),
    ], ids=["four-seeds", "no-trace", "mixed-code", "mixed-bench",
            "mixed-nproc", "failed", "empty"])
    def test_refusals(self, tmp_path, records, message):
        write_results(tmp_path, records)
        with pytest.raises(PointError, match=message):
            fold_results(str(tmp_path))

    def test_unreadable_result_is_refused(self, tmp_path):
        write_results(tmp_path, full_set())
        (tmp_path / "fleet-warm-seed9-trace0.json").write_text(
            "{", encoding="utf-8")
        with pytest.raises(PointError, match="seed9-trace0.json: "
                                             "unreadable"):
            fold_results(str(tmp_path))


class TestWritePoint:
    def test_next_free_number_and_no_overwrite(self, tmp_path):
        (tmp_path / "BENCH_5.json").write_text("old", encoding="utf-8")
        first = write_point({"n": 1}, str(tmp_path))
        second = write_point({"n": 2}, str(tmp_path))
        assert os.path.basename(first) == "BENCH_6.json"
        assert os.path.basename(second) == "BENCH_7.json"
        assert (tmp_path / "BENCH_5.json").read_text() == "old"
        assert json.loads((tmp_path / "BENCH_6.json").read_text()) == \
            {"n": 1}

    def test_cli_writes_or_exits_2(self, tmp_path, monkeypatch, capsys):
        results = tmp_path / "results"
        results.mkdir()
        write_results(results, full_set(seeds=(1, 2, 3)))
        monkeypatch.setattr(bench_report, "RESULTS_DIR", str(results))
        monkeypatch.setattr(bench_report, "REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(sys, "argv", ["bench_report.py", "--point"])
        assert bench_report.main() == 2
        assert "error: fleet-warm: 3 trace-0 seed(s), need at least 5" \
            in capsys.readouterr().err
        write_results(results, full_set())
        assert bench_report.main() == 0
        assert "BENCH_1.json" in capsys.readouterr().err
        assert (tmp_path / "BENCH_1.json").exists()
