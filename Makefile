# Convenience targets for the RMGP reproduction.

PYTHON ?= python3

.PHONY: install test test-output perfbench bench bench-full bench-output bench-perf bench-perf-update bench-parallel bench-serve bench-serve-overload serve examples figures clean

install:
	pip install -e '.[dev]'

# PYTHONPATH=src like tier-1 and CI, so a fresh checkout needs no install.
test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

test-output:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# The repository benchmark: every workload BENCHMARK.json names, once
# each (end-to-end metrics; see perfbench/README.md).
PERFBENCH_SEED ?= 1
PERFBENCH_SECONDS ?= 20
perfbench:
	for workload in $$($(PYTHON) -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))"); do \
		echo "== $$workload"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed $(PERFBENCH_SEED) --seconds $(PERFBENCH_SECONDS) --trace 0 || exit 1; \
	done

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Solver perf-regression check against benchmarks/BENCH_core.json.
# Stale bytecode must never leak into a timing run: purge cached
# benchmark bytecode first and run with -B so none is written back.
bench-perf:
	find benchmarks -name __pycache__ -type d -exec rm -rf {} +
	$(PYTHON) -B benchmarks/bench_perf_regression.py --check --profile core

bench-perf-update:
	find benchmarks -name __pycache__ -type d -exec rm -rf {} +
	$(PYTHON) -B benchmarks/bench_perf_regression.py --update

# Shared-memory backend: speedup-vs-workers curve + byte-identity gate,
# recorded into benchmarks/history/parallel.jsonl.
bench-parallel:
	find benchmarks -name __pycache__ -type d -exec rm -rf {} +
	$(PYTHON) -B benchmarks/bench_parallel.py

# Solve-service load generator: concurrent mixed-deadline HTTP traffic
# + one cancelled job, p50/p99/req/s recorded into
# benchmarks/history/serve.jsonl.
bench-serve:
	$(PYTHON) -B benchmarks/bench_serve.py --check

# Admission storm at ~10x service capacity: shed rate, goodput and
# p99-of-admitted recorded under the serve/overload history key.
bench-serve-overload:
	$(PYTHON) -B benchmarks/bench_serve.py --overload --check

# Run the HTTP/JSON partitioning service on the default port.
serve:
	$(PYTHON) -m repro serve

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

figures:
	for fig in table1 fig7 fig8 fig9 fig10 fig11 fig12a fig12b fig12c fig13 fig14; do \
		$(PYTHON) -m repro figure $$fig; \
	done

# -prune stops find from descending into directories it is about to
# delete (silences spurious "No such file or directory" noise) and the
# explicit src/repro pass catches bytecode landed by PYTHONPATH=src runs.
clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	rm -f benchmarks/history/*.tmp
	find src/repro tests benchmarks . -name __pycache__ -type d -prune -exec rm -rf {} + 2>/dev/null || true
