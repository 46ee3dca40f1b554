PYTHON ?= python
export PYTHONPATH := src

# All smoke/demo artifacts land here: one upload path for CI, one ignore
# entry for git, one `rm -rf` to reset.
SMOKE := .repro_cache/smoke

.PHONY: test test-fast test-resilience campaign-demo store-smoke prune-smoke \
	dataflow-smoke dist-smoke bench-gate lint lint-self ruff tables

test:            ## full test suite
	$(PYTHON) -m pytest

test-fast:       ## skip the slow end-to-end tests
	$(PYTHON) -m pytest -m "not slow"

test-resilience: ## kill/resume campaign tests, with a faulthandler hang guard
	$(PYTHON) -m pytest tests/fi -p faulthandler -o faulthandler_timeout=300

campaign-demo:   ## interrupted + resumed campaign (crash-recovery demo)
	mkdir -p $(SMOKE)
	rm -rf $(SMOKE)/campaign-demo.jsonl $(SMOKE)/campaign-demo.jsonl.telemetry
	$(PYTHON) -m repro.fi run --target msp430-fib --sampled 12 --limit 5 \
		--journal $(SMOKE)/campaign-demo.jsonl
	$(PYTHON) -m repro.fi status --journal $(SMOKE)/campaign-demo.jsonl
	$(PYTHON) -m repro.fi resume --journal $(SMOKE)/campaign-demo.jsonl \
		--telemetry-dir $(SMOKE)/campaign-demo.jsonl.telemetry \
		--metrics-out $(SMOKE)/campaign-demo-metrics.json \
		--trace-out $(SMOKE)/campaign-demo-trace.json
	$(PYTHON) -m repro.fi status --journal $(SMOKE)/campaign-demo.jsonl
	$(PYTHON) -m repro.fi report $(SMOKE)/campaign-demo.jsonl \
		--out $(SMOKE)/campaign-demo.html

store-smoke:     ## warehouse round trip on the campaign-demo journal
	mkdir -p $(SMOKE)
	rm -f $(SMOKE)/store-smoke.sqlite3 $(SMOKE)/store-smoke-heatmap.html
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 ingest \
		$(SMOKE)/campaign-demo.jsonl \
		--telemetry-dir $(SMOKE)/campaign-demo.jsonl.telemetry
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 list
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 show 1
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 diff 1 1
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 heatmap 1 \
		--out $(SMOKE)/store-smoke-heatmap.html

prune-smoke:     ## def-use pruning: audit, accounting, collapsed-vs-full gate
	mkdir -p $(SMOKE)
	rm -rf $(SMOKE)/prune-smoke.sqlite3 $(SMOKE)/prune-smoke-heatmap.html \
		$(SMOKE)/prune-accounting.txt $(SMOKE)/prune-combined.txt \
		$(SMOKE)/prune-full.jsonl \
		$(SMOKE)/prune-full.jsonl.telemetry $(SMOKE)/prune-defuse.jsonl \
		$(SMOKE)/prune-defuse.jsonl.telemetry
	# Sampled prune.* audit on both cores: any refuted claim is an
	# error-severity finding, which exits 1 and fails the job.
	$(PYTHON) -m repro.lint avr msp430 --audit-prune \
		--rules prune.cert-invalid,prune.dead-refuted,prune.equiv-refuted
	$(PYTHON) -m repro.eval prune | tee $(SMOKE)/prune-accounting.txt
	# MATE x gate-level def-use over all four named targets' golden runs.
	$(PYTHON) -m repro.eval combined | tee $(SMOKE)/prune-combined.txt
	# Same sampled points, full campaign vs def-use collapse; the diff
	# gate exits 1 on any outcome flip between them. 2000 points is dense
	# enough for the collapse to save >2x injections (the headline win).
	$(PYTHON) -m repro.fi run --target avr-fib --sampled 2000 --seed 7 \
		--journal $(SMOKE)/prune-full.jsonl --no-store
	$(PYTHON) -m repro.fi run --target avr-fib --sampled 2000 --seed 7 \
		--defuse --journal $(SMOKE)/prune-defuse.jsonl --no-store
	$(PYTHON) -m repro.store --db $(SMOKE)/prune-smoke.sqlite3 ingest \
		$(SMOKE)/prune-full.jsonl $(SMOKE)/prune-defuse.jsonl
	$(PYTHON) -m repro.store --db $(SMOKE)/prune-smoke.sqlite3 diff 1 2
	$(PYTHON) -m repro.store --db $(SMOKE)/prune-smoke.sqlite3 show 2
	$(PYTHON) -m repro.store --db $(SMOKE)/prune-smoke.sqlite3 heatmap 2 \
		--compare 1 --out $(SMOKE)/prune-smoke-heatmap.html

dataflow-smoke:  ## static dataflow layer: audit, 3-layer accounting, flip gate
	mkdir -p $(SMOKE)
	rm -rf $(SMOKE)/dataflow-smoke.sqlite3 $(SMOKE)/dataflow-accounting.txt \
		$(SMOKE)/dataflow-full.jsonl $(SMOKE)/dataflow-full.jsonl.telemetry \
		$(SMOKE)/dataflow-static.jsonl \
		$(SMOKE)/dataflow-static.jsonl.telemetry
	# dataflow.claim-invalid re-derives *every* static certificate with the
	# independent per-path checker; dataflow.dead-refuted injects sampled
	# statically-dead points for real. One refuted claim exits 1.
	$(PYTHON) -m repro.lint avr msp430 --audit-dataflow --rules 'dataflow.*'
	# Three-layer accounting (MATE x def-use x static) as a CI artifact.
	$(PYTHON) -m repro.eval prune | tee $(SMOKE)/dataflow-accounting.txt
	# Same sampled points, full campaign vs static+def-use collapse; the
	# diff gate exits 1 on any outcome flip between them.
	$(PYTHON) -m repro.fi run --target avr-fib --sampled 2000 --seed 11 \
		--journal $(SMOKE)/dataflow-full.jsonl --no-store
	$(PYTHON) -m repro.fi run --target avr-fib --sampled 2000 --seed 11 \
		--defuse --static --journal $(SMOKE)/dataflow-static.jsonl --no-store
	$(PYTHON) -m repro.store --db $(SMOKE)/dataflow-smoke.sqlite3 ingest \
		$(SMOKE)/dataflow-full.jsonl $(SMOKE)/dataflow-static.jsonl
	$(PYTHON) -m repro.store --db $(SMOKE)/dataflow-smoke.sqlite3 diff 1 2
	$(PYTHON) -m repro.store --db $(SMOKE)/dataflow-smoke.sqlite3 show 2

dist-smoke:      ## distributed service: 2 workers, one SIGKILLed, flip-free gate
	mkdir -p $(SMOKE)
	# Coordinator (worker auth + live console) + two loopback injector
	# workers over a 2000-point avr-fib campaign; /metrics and
	# /status.json are scraped mid-run, one worker is SIGKILLed, the
	# merged shard journal must diff flip-free against a single-host
	# reference, and a SIGSTOP stall drill must trip (then clear) the
	# stalled health rule.
	$(PYTHON) scripts/dist_smoke.py --smoke-dir $(SMOKE)

bench-gate:      ## benchmark self-tests + fast-path correctness gates
	$(PYTHON) -m pytest bench/tests -q
	# Re-simulates 32 journal points per workload from cycle 0 with the
	# scalar reference and exits nonzero on any mismatch; the cold
	# analysis must reproduce the recorded def-use, static and MATE counts.
	$(PYTHON) -m bench run --workload avr-inline --workload avr-workers2 \
		--workload msp430-layered --workload analysis --trace 0 --seconds 5
	# Lanes vs scalar on avr-conv, whose checkpoint interval is 32, so
	# lanes peel between checkpoints: the same points inline (bit-parallel
	# lanes) and on 2 pool workers (scalar, one point at a time). The two
	# journals share one warehouse key, so they are compared directly;
	# any outcome flip exits 1 and is listed.
	mkdir -p $(SMOKE)
	rm -rf $(SMOKE)/lanes-inline.jsonl $(SMOKE)/lanes-inline.jsonl.telemetry \
		$(SMOKE)/lanes-pool.jsonl $(SMOKE)/lanes-pool.jsonl.telemetry
	$(PYTHON) -m repro.fi run --target avr-conv --sampled 200 --seed 3 \
		--workers 0 --journal $(SMOKE)/lanes-inline.jsonl --no-store
	$(PYTHON) -m repro.fi run --target avr-conv --sampled 200 --seed 3 \
		--workers 2 --journal $(SMOKE)/lanes-pool.jsonl --no-store
	$(PYTHON) -c 'import sys; from repro.fi import load_result; \
		a, b = (load_result(p).records for p in sys.argv[1:]); \
		flips = [(x, y) for x, y in zip(a, b) if x != y]; \
		print(f"lanes vs scalar: {len(a)}/{len(b)} records, {len(flips)} flips"); \
		sys.stdout.writelines(f"{x} != {y}\n" for x, y in flips[:10]); \
		sys.exit(len(a) != len(b) or bool(flips))' \
		$(SMOKE)/lanes-inline.jsonl $(SMOKE)/lanes-pool.jsonl

lint:            ## static analysis of the evaluation designs
	$(PYTHON) -m repro.lint figure1
	$(PYTHON) -m repro.lint avr
	$(PYTHON) -m repro.lint msp430

lint-self:       ## self-lint every fixture-produced netlist (zero errors)
	$(PYTHON) -m pytest -m lint_self -q

ruff:            ## style/import checks (requires ruff; CI installs it)
	$(PYTHON) -m ruff check .

tables:          ## regenerate the paper's tables and figures
	$(PYTHON) -m repro.eval all
