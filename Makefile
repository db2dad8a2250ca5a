# Janus reproduction — common entry points.

PYTHON ?= python

.PHONY: install test lint wire-spec verify bench bench-e2e bench-e2e-smoke bench-simkernel bench-obs bench-multicore bench-lease bench-reshard experiments experiments-paper examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Static analysis.  `janus lint` (repro.analysis) is self-hosted and always
# gates; ruff and mypy gate when installed (CI installs them) and are
# skipped with a notice when the local environment lacks them.  --cache
# makes warm local runs incremental (keyed by content hash, stored in
# .janus-lint-cache.json); CI checkouts are cold anyway.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.cli lint src --cache
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipped (pip install ruff)"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file pyproject.toml; \
	else \
		echo "lint: mypy not installed, skipped (pip install mypy)"; \
	fi

# Extract the machine-readable wire spec and the boundary-value fuzz
# seed corpus from core/protocol.py (and cross-check docs/PROTOCOL.md);
# CI uploads both as artifacts of the lint job.
wire-spec:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.wiremodel \
		src/repro/core/protocol.py --out wire-spec.json \
		--corpus wire-corpus --check-doc docs/PROTOCOL.md

# Default pre-merge check: static analysis, then the tier-1 suite.
verify: lint
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# End-to-end benchmark of the real-socket cluster (BENCHMARK.json): every
# workload in a fresh child process, metrics printed by name, verdicts
# checked, result.json and span files written under bench_e2e/out/.
bench-e2e:
	$(PYTHON) -m bench_e2e

# Gating smoke of the end-to-end benchmark: its own test suite, then one
# short gw_single run (exits non-zero on a verdict violation).
bench-e2e-smoke:
	$(PYTHON) -m pytest bench_e2e -q -p no:cacheprovider
	$(PYTHON) -m bench_e2e --workload gw_single --seconds 2

# DES kernel + parallel sweep regression gate; writes BENCH_simkernel.json
# at the repo root (optimized vs seed kernel events/s, serial vs --jobs 4
# sweep wall-clock).
bench-simkernel:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_simkernel_regression.py -q -s -p no:cacheprovider

# Observability-overhead regression gate: channel wire path traced at the
# default head-sampling rate vs untraced (throughput + idle p99); writes
# BENCH_obs.json at the repo root.  OBS_CHECKS scales duration.
bench-obs:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_obs_regression.py -q -s -p no:cacheprovider

# Multi-process plane regression gate: aggregate decisions/s at 2 worker
# processes vs the single-process baseline, port-map fan-in; writes
# BENCH_multicore.json at the repo root.  The 1.5x gate skips (but still
# records) on single-CPU hosts.  MULTICORE_CHECKS scales duration.
bench-multicore:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_multicore_regression.py -q -s -p no:cacheprovider

# Credit-lease regression gate: router-local admission from leased bucket
# credit vs the channel wire path on a hot-key workload, plus the
# over-admission bound check and the cold-key idle-latency pair; writes
# BENCH_lease.json at the repo root.  The wall-clock gates skip (but
# still record) on single-CPU hosts.  LEASE_CHECKS scales duration.
bench-lease:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_lease_regression.py -q -s -p no:cacheprovider

# Live-reshard regression gate: migration fidelity (exact credit
# accounting across a 2→3 reshard) plus the transfer window under
# closed-loop load (default-reply rate in vs out of window); writes
# BENCH_reshard.json at the repo root.  The wall-clock gates skip (but
# still record) on single-CPU hosts.  RESHARD_SECONDS scales duration.
bench-reshard:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_reshard_regression.py -q -s -p no:cacheprovider

experiments:
	$(PYTHON) -m repro.experiments.runner

experiments-paper:
	REPRO_SCALE=paper $(PYTHON) -m repro.experiments.runner

examples:
	@for script in examples/*.py; do \
		echo "=== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build src/*.egg-info .pytest_cache .janus-lint-cache.json wire-spec.json wire-corpus
	find . -name __pycache__ -type d -exec rm -rf {} +
