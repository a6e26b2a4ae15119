# Convenience targets; everything is plain pytest/python underneath.

.PHONY: test test-fast test-faults test-guard bench examples docs clean

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

# Recovery paths must not rot: run the fault-injection suite with
# warnings promoted to errors (mirrors the dedicated CI step).
test-faults:
	pytest tests/ -m faults -W error

# Guardrail suite: quarantine, watchdog rollback, circuit breaker,
# graceful shutdown (mirrors the dedicated CI step).
test-guard:
	pytest tests/ -m guard -W error

bench:
	pytest benchmarks/ --benchmark-only

# End-to-end smoke suites: only the checks tier-1 cannot make (the keep
# rule and each suite's steps are in scripts/validate.py; CI runs the same
# list as a matrix).
SMOKE_SUITES = elastic obs kernels store scenarios
SMOKE_TARGETS = $(SMOKE_SUITES:%=%-smoke)

.PHONY: $(SMOKE_TARGETS)
$(SMOKE_TARGETS): %-smoke:
	python scripts/validate.py $*

examples:
	python examples/quickstart.py
	python examples/minibatch_vs_fullgraph.py
	python examples/distributed_scaling.py
	python examples/bulk_sampling_demo.py
	python examples/physics_analysis.py
	python examples/traditional_vs_gnn.py
	python examples/production_strategies.py

docs:
	python scripts/generate_api_docs.py > docs/api.md

# The result tables under benchmarks/results/ are tracked; only the
# per-bench trace exports beside them (telemetry/) are regenerated output.
clean:
	rm -rf benchmarks/.bench_cache .pytest_cache .hypothesis benchmarks/results/telemetry
	find . -name __pycache__ -type d -exec rm -rf {} +
