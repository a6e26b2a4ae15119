"""The repo's perf ledger: four frozen workloads, end-to-end + per-layer metrics.

``BENCHMARK.json`` at the repo root names the metrics and workloads;
``run.py`` measures one workload (the driver's contract entry point),
``python -m benchmarks.suite`` runs all of them into one versioned JSON
and ``compare.py`` judges two such files.  See ``README.md``.
"""
