# Convenience targets for the hypersphere-dominance reproduction.

PYTHON ?= python

.PHONY: install test lint fuzz chaos stream-chaos bench bench-smoke serve-smoke serve-procs-chaos perfbench-smoke examples experiments claims profile clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Domain-aware static analysis (docs/static-analysis.md) plus the
# strict-typing gate.  mypy is optional locally; CI always has it.
lint:
	$(PYTHON) -m repro.analysis
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --strict src/repro; \
	else \
		echo "mypy not installed; skipping the typing gate (CI runs it)"; \
	fi

# The long hypothesis profile plus the robustness/fault suites: many
# more examples, fresh seeds each run.
fuzz:
	HYPOTHESIS_PROFILE=fuzz $(PYTHON) -m pytest -q \
		tests/test_boundary_fuzz.py tests/test_faults.py \
		tests/test_robust_exact.py tests/test_robust_decision.py \
		tests/test_criteria_properties.py tests/test_batch_route.py \
		tests/test_knn_blocks.py

# The resilience gate (docs/resilience.md): the chaos matrix (every
# fault seam x mode), budget/degradation behaviour, snapshot integrity,
# the serve seam matrix, and the idle-budget overhead bound.
chaos:
	$(PYTHON) -m pytest -q \
		tests/test_chaos.py tests/test_resilience.py \
		tests/test_snapshot.py tests/test_serve_chaos.py \
		benchmarks/test_budget_overhead.py

# The streaming durability gate (docs/streaming.md): the crash matrix
# (SIGKILL at every WAL/compaction seam under load) plus the WAL,
# overlay, engine, property and serve-mutation suites.
stream-chaos:
	$(PYTHON) -m pytest -q \
		tests/test_stream_chaos.py tests/test_stream_wal.py \
		tests/test_stream_overlay.py tests/test_stream_engine.py \
		tests/test_stream_property.py tests/test_serve_mutate.py

# The serving gate (docs/serving.md): boot a server on a fixture
# snapshot, fire a fault-injected burst over real TCP, and fail unless
# every response is 200/206/429 and /metrics scrapes — then the full
# serve test suite (protocol, admission, breaker, retry, end-to-end,
# concurrency).
serve-smoke:
	$(PYTHON) -m repro serve smoke
	$(PYTHON) -m repro serve smoke --seam queue --mode nan --every 2
	$(PYTHON) -m pytest -q \
		tests/test_serve_protocol.py tests/test_serve_admission.py \
		tests/test_serve_app.py tests/test_serve_concurrency.py

# The worker-pool gate (docs/serving.md, supervised multi-process
# serving): the SIGKILL chaos matrix — workers killed mid-load by pid
# and through the worker_kill/worker_heartbeat/worker_spawn seams —
# plus the supervisor unit suite and a supervised smoke burst.
serve-procs-chaos:
	$(PYTHON) -m pytest -q \
		tests/test_serve_procs_chaos.py tests/test_serve_supervisor.py
	$(PYTHON) -m repro serve smoke --workers 2 --every 4

# The served-path benchmark (perfbench/README.md) as an oracle-checked
# smoke: a traced mixed-pool run through `repro serve --workers 2`, a
# stream-rw run through `repro serve --stream`, and a knn-heavy run over
# the batched kNN dominance path.  Each exits non-zero on any wrong
# unflagged answer; the traced run also fails if a function its tracer
# wraps has disappeared from the program.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload mixed-pool --seed 1 --seconds 5 --trace 1
	$(PYTHON) perfbench/run.py --workload stream-rw --seed 1 --seconds 5 --trace 0
	$(PYTHON) perfbench/run.py --workload knn-heavy --seed 1 --seconds 5 --trace 0

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The standing perf observatory (docs/benchmarking.md): sweep the
# pinned quick points into a fresh trajectory and diff it against the
# committed BENCH_*.json baselines.  The compare step is a soft gate
# (the leading '-'): cross-machine timing differences are reported, not
# failed, while `repro bench compare` itself still exits non-zero on a
# past-threshold regression for same-machine CI lanes.
bench-smoke:
	$(PYTHON) -m repro bench --quick --out-dir .bench-smoke
	-$(PYTHON) -m repro bench compare --baseline . --current .bench-smoke \
		--threshold 0.5

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

experiments:
	$(PYTHON) -m repro all

claims:
	$(PYTHON) -m repro claims

profile:
	$(PYTHON) -m repro stats

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist src/*.egg-info .domlint_cache .bench-smoke .perfbench_work
	find . -name __pycache__ -type d -exec rm -rf {} +
