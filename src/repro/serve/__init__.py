"""Inference serving engine: micro-batching, stage caching, load-shedding.

``repro.serve`` turns a fitted :class:`~repro.pipeline.ExaTrkXPipeline`
into a request-serving system: a bounded :class:`RequestQueue` feeding a
dynamic micro-batcher (one dispatch, in-batch dedup, cache lookups and
admission per batch; stage forwards stay per event), a keyed
:class:`StageCache` so replayed events skip the upstream stages, and
admission control with load-shedding plus a degraded GNN-skip mode under
latency pressure.  Batched results are bit-identical to looped
:meth:`~repro.pipeline.ExaTrkXPipeline.reconstruct` because no forward
ever sees two events (see :mod:`repro.serve.engine` for the determinism
contract), and :mod:`repro.serve.loadgen` provides an open-loop
generator for overload experiments.

Guardrails (``docs/resilience.md``): input quarantine at submit, a
circuit breaker around the GNN stage routing to the degraded GNN-skip
path while open, per-request timeouts, and graceful drain on close —
every request reaches exactly one terminal state.
"""

from .cache import CachedStages, StageCache, event_fingerprint
from .engine import (
    InferenceEngine,
    RequestFailedError,
    RequestQuarantinedError,
    RequestQueue,
    RequestShedError,
    RequestTimeoutError,
    ServeConfig,
    ServeRequest,
    ServeStats,
)
from .loadgen import LoadGenConfig, LoadGenReport, arrival_times, run_loadgen

__all__ = [
    "CachedStages",
    "StageCache",
    "event_fingerprint",
    "InferenceEngine",
    "RequestQueue",
    "ServeConfig",
    "ServeRequest",
    "ServeStats",
    "RequestShedError",
    "RequestQuarantinedError",
    "RequestTimeoutError",
    "RequestFailedError",
    "LoadGenConfig",
    "LoadGenReport",
    "arrival_times",
    "run_loadgen",
]
