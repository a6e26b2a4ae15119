"""repro — reproduction of "Scaling Graph Neural Networks for Particle
Track Reconstruction" (IPPS 2025).

The package implements, from scratch on NumPy/SciPy:

* :mod:`repro.tensor` — reverse-mode autograd engine (PyTorch substitute);
* :mod:`repro.nn` — Module/MLP/optimiser layer;
* :mod:`repro.graph` — event-graph substrate (COO/CSR, components, FRNN);
* :mod:`repro.detector` — synthetic HEP detector & dataset generator
  (stands in for the gated CTD / Ex3 datasets);
* :mod:`repro.models` — the Interaction GNN (Algorithm 1) and stage MLPs;
* :mod:`repro.sampling` — ShaDow (Algorithm 2) and matrix-based bulk
  sampling (Figure 2);
* :mod:`repro.distributed` — simulated multi-GPU DDP with ring all-reduce,
  coalesced gradient buffers, and an α–β communication cost model;
* :mod:`repro.memory` — GPU activation-memory model driving full-graph
  skip decisions;
* :mod:`repro.pipeline` — the five Exa.TrkX stages end to end;
* :mod:`repro.metrics` — edge precision/recall and track-level scores;
* :mod:`repro.obs` — run telemetry: hierarchical span tracing, a metrics
  registry, and Chrome-trace/JSONL export (``docs/observability.md``);
* :mod:`repro.data` — asynchronous prefetching batch pipeline that
  overlaps sampler work with training compute (``docs/data_pipeline.md``);
* :mod:`repro.serve` — inference serving engine: dynamic micro-batching,
  keyed stage caching, and load-shedding with a degraded GNN-skip mode
  (``docs/serving.md``);
* :mod:`repro.guard` — end-to-end guardrails: input quarantine, the
  training stability watchdog (rollback + LR backoff), and the serving
  circuit breaker (``docs/resilience.md``);
* :mod:`repro.store` — out-of-core event store: memory-mapped CSR
  shards with checksummed manifests, guarded ingestion, and streaming
  epochs under a resident-byte budget (``docs/event_store.md``).

See ``DESIGN.md`` for the full system inventory and the per-experiment
index mapping each paper table/figure to a benchmark.
"""

__version__ = "1.0.0"

from . import tensor, nn, graph, detector, models, sampling, data, distributed, memory, metrics, obs, perf, guard, pipeline, io, baselines, faults, serve, store  # noqa: E402,F401

__all__ = [
    "__version__",
    "tensor",
    "nn",
    "graph",
    "detector",
    "models",
    "sampling",
    "data",
    "distributed",
    "memory",
    "metrics",
    "obs",
    "perf",
    "guard",
    "pipeline",
    "io",
    "faults",
    "serve",
    "store",
]
