# Developer entry points. Everything runs against the src/ layout via
# PYTHONPATH so no install step is required (pip install -e . also works
# now that setup.py declares package_dir).

PY ?= python
PYPATH := PYTHONPATH=src

.PHONY: test stress stress-faults stress-tenancy test-proc bench-smoke bench-check bench-dispatch bench-proc lint examples

## tier-1 test suite (the driver's acceptance gate)
test:
	$(PYPATH) $(PY) -m pytest -x -q

## overlap stress: rerun the concurrency-sensitive suites (dispatch
## contexts, admission policies, deadlines, the optimisation aspects —
## the shared-cache lock and replica builds race real threads — and
## the thread pool's zero-start, never-queue, recycled-thread hygiene
## and fork tests) 5x with the pytest cache disabled, to surface flakes and
## hangs that a single ordered run hides.  CI wraps this in a hard
## timeout-minutes so a hung untimed wait fails the job instead of
## stalling it.
stress:
	@for i in 1 2 3 4 5; do \
		echo "--- stress round $$i/5 ---"; \
		$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
			tests/parallel/test_dispatch_contexts.py \
			tests/parallel/test_admission_policies.py \
			tests/parallel/test_deadlines.py \
			tests/parallel/test_optimisation.py \
			tests/runtime/test_thread_pool.py || exit 1; \
	done

## fault-injection stress: rerun the whole fault matrix 5x — the
## tests/faults suites (schedule determinism, retry-collector
## properties, kill-and-replace recovery, golden trace) plus the fault
## parametrisations of the thread and process dispatch matrices.  Kills
## and respawns are timing-sensitive by construction; 5 rounds with the
## cache disabled surface interleavings a single run hides.  CI wraps
## this in a hard timeout-minutes so a lost wakeup (a hang, not a
## failure) still fails the job fast.
stress-faults:
	@for i in 1 2 3 4 5; do \
		echo "--- fault stress round $$i/5 ---"; \
		$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
			tests/faults || exit 1; \
		$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
			tests/parallel/test_dispatch_contexts.py \
			tests/parallel/test_process_backend_matrix.py \
			-k "FaultMatrix" || exit 1; \
	done

## tenancy/traffic stress: rerun the cluster-scheduler suites (stride
## hand-offs race real threads), the sim fairness scenarios, and the
## traffic determinism tests 5x with the cache disabled.  CI wraps this
## in a hard timeout-minutes so a lost hand-off wakeup (a hang, not a
## failure) fails the job fast.
stress-tenancy:
	@for i in 1 2 3 4 5; do \
		echo "--- tenancy stress round $$i/5 ---"; \
		$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
			tests/tenancy tests/traffic \
			tests/faults/test_shed_retry.py || exit 1; \
	done

## out-of-process backend subset: worker lifecycle + crash fail-fast,
## the wire-format round-trips, and the overlap/admission/deadline
## matrix on resident worker processes.  CI wraps this in a hard
## timeout-minutes: a hang here means a pipe wait without a liveness
## check, and must fail fast instead of stalling the job.
test-proc:
	$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
		tests/runtime/test_procbackend.py \
		tests/middleware/test_serialize_roundtrip.py \
		tests/parallel/test_process_backend_matrix.py

## process-backend benchmark pairs only: thread-vs-process on the
## CPU-bound farm split and one-marshal-per-pack across the pipe.
## Appends to benchmarks/BENCH_dispatch.json like bench-smoke.
bench-proc:
	REPRO_BENCH_MAXIMUM=200000 REPRO_BENCH_PACKS=8 \
		$(PYPATH) $(PY) -m pytest benchmarks/bench_aop_dispatch.py -q \
		-k "cpu_farm or map_pack8_process or map_unpacked_process"

## quick benchmark pass: dispatch overhead only, small workload knobs.
## Covers the full decision tree: inert, single-/all-around, the
## mixed-chain compiled-vs-interpreted pair and the batched pack-8
## dispatch pair — plus the committed tenancy overload scenarios, which
## register their virtual-time metrics into the same trajectory.  Both
## files run in ONE pytest invocation so the run record carries every
## gated pair.  Appends stats to benchmarks/BENCH_dispatch.json.
bench-smoke:
	REPRO_BENCH_MAXIMUM=200000 REPRO_BENCH_PACKS=8 \
		$(PYPATH) $(PY) -m pytest -q \
		benchmarks/bench_aop_dispatch.py benchmarks/bench_tenancy.py

## regression gate over ALL committed bench pairs: compares the latest
## BENCH_dispatch.json run's within-run pair ratios against the
## committed trajectory, with per-pair thresholds from
## tools/bench_gates.json.  Regressions emit GitHub Actions ::error
## annotations naming the pair.  Run after bench-smoke (CI wires them
## in sequence).
bench-check:
	$(PY) tools/check_bench_regression.py

## full E4 dispatch benchmark with the default (paper-scale) knobs
bench-dispatch:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_aop_dispatch.py -q \
		--benchmark-sort=name

## run every example headless, in sequence, failing fast on the first
## broken one.  The examples double as end-to-end smoke tests of the
## documented API surface (each asserts its own invariants and exits
## non-zero on drift), so CI runs this target to keep README/docs
## snippets honest.
examples:
	@set -e; for ex in examples/*.py; do \
		echo "--- $$ex ---"; \
		$(PYPATH) $(PY) $$ex; \
	done
	@echo "examples ok"

## syntax + docs lint: the container ships no third-party linter, so
## this byte-compiles every tree (catches syntax errors, tabs/space
## mixes) and enforces that every public module in src/repro has a
## module docstring.  Swap in ruff/flake8 here when the toolchain gains
## one.
lint:
	$(PY) -m compileall -q src tests benchmarks examples tools
	@echo "lint ok (compileall)"
	$(PY) tools/lint_docstrings.py
