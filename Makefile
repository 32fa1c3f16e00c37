# Developer entry points.  Everything runs from the repo root with the
# sources on PYTHONPATH; no installation step is required.

PY := PYTHONPATH=src python

# Coverage floor for `make coverage` / CI: conservatively below the
# currently measured line coverage so real regressions trip it while
# routine refactors do not.
COV_FLOOR := 75

.PHONY: test test-fast bench bench-fidelity bench-grid bench-fleet \
	bench-json bench-point coverage docs-check golden-update report \
	resume-smoke metrics-smoke chaos-smoke findings-smoke \
	invariance-smoke

test:
	$(PY) -m pytest -x -q

# Fast inner loop: skips the multi-cell fleet/grid/conformance/golden
# suites (marker registered in pytest.ini). Tier-1 stays `make test`.
test-fast:
	$(PY) -m pytest -x -q -m "not slow"

bench:
	$(PY) -m pytest benchmarks -q

# The benchmark suite without its wall-clock speedup floors (marker
# `wallclock`): the paper-fidelity comparisons, which hold on any
# machine.  CI runs it; `make bench` still runs everything.
bench-fidelity:
	$(PY) -m pytest benchmarks -q -m "not wallclock"

bench-grid:
	$(PY) -m pytest benchmarks/bench_grid_runner.py -q

bench-fleet:
	$(PY) -m pytest benchmarks/bench_fleet.py -q

# Codec hot-path trajectory: microbenches + a reduced-grid end-to-end
# cell, written to the git-ignored .benchmarks/bench-json.json, so a run
# never rewrites the committed BENCH_5.json point it is compared with.
bench-json:
	$(PY) scripts/bench_report.py --out .benchmarks/bench-json.json

# Commit-ready perf point: fold perfbench's result files
# (.perfbench/results/, written by perfbench/run.py) into the next free
# BENCH_<n>.json.  Needs at least 5 --trace 0 seeds and one --trace 1
# run per workload, all from one code and benchmark version, with no
# failed operation; never overwrites an existing point.
bench-point:
	$(PY) scripts/bench_report.py --point

# Full suite under coverage with the floor enforced (requires
# pytest-cov, which CI installs; locally: pip install pytest-cov).
coverage:
	$(PY) -m pytest -q --cov=repro --cov-report=term \
		--cov-report=xml --cov-fail-under=$(COV_FLOOR)

# Regenerate the byte-identical output pins under tests/golden/ after an
# intentional simulation change, then commit the updated artifacts.
golden-update:
	$(PY) scripts/update_golden.py

docs-check:
	$(PY) scripts/docs_check.py

# Streaming-service kill/resume smoke: batch fleet, uninterrupted
# stream, and a SIGTERMed-then-resumed stream must all render the same
# report (sha256).  CI runs it at 200 households; the knobs exist for a
# quicker local loop.
resume-smoke:
	$(PY) scripts/resume_smoke.py --households $(or $(SMOKE_N),200) \
		--jobs $(or $(SMOKE_JOBS),8)

# Observability smoke: a small fleet in plain-dashboard mode with a
# JSONL metrics export, validated against schema v1 by the checker.
metrics-smoke:
	$(PY) -m repro.cli fleet --households $(or $(SMOKE_N),16) \
		--jobs $(or $(SMOKE_JOBS),2) --no-cache --dashboard --plain \
		--metrics-out metrics.jsonl
	$(PY) scripts/check_metrics.py metrics.jsonl

# Fault-injection chaos smoke: serve under an aggressive lossless
# fault plan (drops/dups/reorders/starvation/crashes/torn checkpoints,
# including a SIGTERM + resume) must render a report byte-identical to
# the fault-free batch fleet; a lossy (pcap-corruption) plan must
# complete with a jobs-invariant degradation-evidence section.
chaos-smoke:
	$(PY) scripts/chaos_smoke.py --households $(or $(SMOKE_N),96) \
		--jobs $(or $(SMOKE_JOBS),8)

# Findings-export invariance smoke: fleet --jobs 1 vs --jobs 8 under a
# lossy fault plan with roku in the mix must write sha256-identical
# --findings-out JSONL (carrying real DEG and OPTOUT findings), pass
# the schema checker, and self-diff to zero changes.
findings-smoke:
	$(PY) scripts/findings_smoke.py --households $(or $(SMOKE_N),24) \
		--jobs $(or $(SMOKE_JOBS),8)

# Start-method, hash-seed and job-count invariance smoke: the fleet
# report and the findings export must be sha256-identical under the fork
# and spawn start methods, under PYTHONHASHSEED 0, 1 and 2, and at
# --jobs 1 and 3.
invariance-smoke:
	$(PY) scripts/invariance_smoke.py --households $(or $(SMOKE_N),32) \
		--jobs $(or $(SMOKE_JOBS),2)

report:
	$(PY) -m repro.cli report --jobs 4 > EXPERIMENTS.md
