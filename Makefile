# Developer entry points.  Everything runs from the repo root with the
# sources on PYTHONPATH; no installation step is required.

PY := PYTHONPATH=src python

# Coverage floor for `make coverage` / CI: conservatively below the
# currently measured line coverage so real regressions trip it while
# routine refactors do not.
COV_FLOOR := 75

.PHONY: test test-fast bench bench-grid bench-fleet bench-json \
	coverage docs-check golden-update report resume-smoke \
	metrics-smoke chaos-smoke findings-smoke \
	invariance-smoke

test:
	$(PY) -m pytest -x -q

# Fast inner loop: skips the multi-cell fleet/grid/conformance/golden
# suites (marker registered in pytest.ini). Tier-1 stays `make test`.
test-fast:
	$(PY) -m pytest -x -q -m "not slow"

bench:
	$(PY) -m pytest benchmarks -q

bench-grid:
	$(PY) -m pytest benchmarks/bench_grid_runner.py -q

bench-fleet:
	$(PY) -m pytest benchmarks/bench_fleet.py -q

# Codec hot-path trajectory: microbenches + a reduced-grid end-to-end
# cell, written to BENCH_5.json so future PRs can regress-check.
bench-json:
	$(PY) scripts/bench_report.py --out BENCH_5.json

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

# Start-method and hash-seed invariance smoke: the fleet report and
# the findings export must be sha256-identical under the fork and spawn
# start methods and under PYTHONHASHSEED 0, 1 and 2.
invariance-smoke:
	$(PY) scripts/invariance_smoke.py --households $(or $(SMOKE_N),32) \
		--jobs $(or $(SMOKE_JOBS),2)

report:
	$(PY) -m repro.cli report --jobs 4 > EXPERIMENTS.md
