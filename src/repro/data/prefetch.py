"""Asynchronous prefetching batch pipeline.

The paper's Figure-3 breakdown splits epoch time into ShaDow sampling
and GNN compute; its bulk sampler (Eq. 1) shrinks the sampling term but
the trainer still ran the two phases strictly sequentially, leaving the
model idle while the ``Q^d A`` SpGEMMs run.  This module overlaps them:
a :class:`PrefetchLoader` wraps any :class:`~repro.sampling.base.Sampler`
and keeps a bounded number of sampled bulk steps in flight on the
process's one thread pool (:func:`repro._per_event.submit`; the samplers
are numpy/scipy-bound, and SpGEMM releases the GIL, so the pool's
threads overlap genuinely with compute).

Determinism contract
--------------------
Batch contents are **bit-identical regardless of worker count or
scheduling order**:

* the epoch's batch schedule (:class:`EpochPlan`) is materialised
  up-front on the trainer thread, consuming the trainer RNG exactly
  once per epoch;
* each bulk step then samples from its own child generator, spawned via
  :class:`numpy.random.SeedSequence` from one entropy draw off the
  trainer RNG — step *i*'s subgraphs are a pure function of
  ``(plan, i, live ranks)``, never of which worker ran it when.

That purity is also what makes elastic recovery safe: a step prefetched
against a rank set that has since shrunk (a rank was evicted) is simply
recomputed against the survivors from the same child seed, and what
makes mid-epoch checkpoint/resume bit-exact: the loader's cursor (steps
consumed) plus the epoch-start RNG state fully reconstruct the pipeline.

``workers=0`` looks ahead zero steps: every step is sampled inline on
the calling thread at the moment it is requested — same child-seed
scheme, same loop, nothing in flight.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .._per_event import settle, submit
from ..graph import EventGraph, shard_batch
from ..obs import get_metrics, get_tracer
from ..sampling import SampledBatch, Sampler, epoch_batches, group_batches

__all__ = ["PlannedStep", "EpochPlan", "PrefetchLoader", "PrefetchStats", "sample_step"]

#: Exclusive upper bound for the per-epoch entropy draw (int64-safe).
_ENTROPY_BOUND = np.int64(2**62)


@dataclass(frozen=True)
class PlannedStep:
    """One bulk sampling step of an epoch plan.

    ``seed`` is the step's own :class:`~numpy.random.SeedSequence` child;
    sampling from it is a pure function, so the step can be executed on
    any thread, in any order, any number of times, with identical output.
    """

    index: int
    graph: EventGraph  # or a lazy handle (e.g. repro.store.StoredGraph)
    batches: Tuple[np.ndarray, ...]
    seed: np.random.SeedSequence
    #: train the step under activation checkpointing (full-graph rescue
    #: of an event over the memory budget)
    recompute: bool = False


@dataclass(frozen=True)
class EpochPlan:
    """The complete, materialised batch schedule of one epoch.

    Built on the trainer thread from the trainer RNG (graph order and
    vertex permutations exactly as :func:`repro.sampling.epoch_batches`
    draws them), plus one entropy draw that seeds every step's child
    generator.  After construction the trainer RNG is not consumed again
    until the next epoch — which is what lets a mid-epoch resume rebuild
    the identical plan from the epoch-start RNG state.
    """

    steps: Tuple[PlannedStep, ...]

    @classmethod
    def build(
        cls,
        graphs: Sequence[EventGraph],
        batch_size: int,
        k: int,
        rng: np.random.Generator,
        drop_last: bool = True,
    ) -> "EpochPlan":
        """Materialise the epoch's ``k``-grouped batches and child seeds."""
        groups = [
            (graph, tuple(batches))
            for graph, batches in group_batches(
                epoch_batches(graphs, batch_size, rng, drop_last=drop_last), k
            )
        ]
        entropy = int(rng.integers(0, _ENTROPY_BOUND))
        children = np.random.SeedSequence(entropy).spawn(len(groups))
        return cls(
            steps=tuple(
                PlannedStep(index=i, graph=graph, batches=batches, seed=child)
                for i, ((graph, batches), child) in enumerate(zip(groups, children))
            )
        )

    def __len__(self) -> int:
        return len(self.steps)


def sample_step(
    sampler: Sampler, step: PlannedStep, ranks: Tuple[int, ...]
) -> Dict[int, List[SampledBatch]]:
    """Sample one planned step for every live rank (pure function).

    Each rank ``ranks[slot]`` samples its ``1/len(ranks)`` shard of every
    batch in the step's group, all drawn from the step's child generator
    in rank order — bit-identical however often and wherever it runs.

    ``step.graph`` may be a lazy out-of-core handle (anything with a
    ``materialize()`` method, e.g. :class:`repro.store.StoredGraph`):
    the plan then holds only metadata and the event's arrays are mapped
    here, at the moment the step is sampled — which is what keeps a
    streamed epoch's resident set bounded by the store's shard window
    instead of the epoch size.
    """
    graph = step.graph
    materialize = getattr(graph, "materialize", None)
    if materialize is not None:
        graph = materialize()
    rng = np.random.default_rng(step.seed)
    out: Dict[int, List[SampledBatch]] = {}
    for slot, grank in enumerate(ranks):
        shards = [shard_batch(b, slot, len(ranks)) for b in step.batches]
        out[grank] = sampler.sample_bulk(graph, shards, rng)
    return out


@dataclass
class PrefetchStats:
    """Aggregate pipeline health counters for one loader lifetime."""

    steps: int = 0
    stall_seconds: float = 0.0  # trainer-thread time spent waiting
    sample_seconds: float = 0.0  # total sampler time (worker or inline)
    recomputed_steps: int = 0  # prefetched with a stale rank set
    max_queue_depth: int = 0

    def overlap_efficiency(self) -> float:
        """Fraction of sampler time hidden behind compute (0 when
        synchronous, → 1 when prefetching hides sampling entirely)."""
        if self.sample_seconds <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.stall_seconds / self.sample_seconds)


class PrefetchLoader:
    """Serve sampled bulk steps, overlapping sampler work with training.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.sampling.base.Sampler`; bulk samplers fuse a
        step's group into one stacked pass, sequential samplers fall
        back to one call per batch — unchanged semantics either way.
    workers:
        Prefetch on (``>= 1``) or off (``0``, default: steps are sampled
        inline when requested); the shared pool's size, not this number,
        bounds how many samples run at once.
    depth:
        Bound on in-flight prefetched steps (the double-buffer depth).
        Larger values smooth variable step costs at the price of memory
        holding more sampled subgraphs alive.

    Telemetry: every consumed step emits a ``data.prefetch.next`` span
    (trainer-side stall), every sampled step a ``data.prefetch.sample``
    span (on the thread that ran it), and the run metrics gain
    ``data.prefetch.*`` counters/gauges/histograms (queue depth, stall
    time, recomputed steps).
    """

    def __init__(self, sampler: Sampler, workers: int = 0, depth: int = 2) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.sampler = sampler
        self.workers = workers
        self.depth = depth
        self.stats = PrefetchStats()

    # ------------------------------------------------------------------
    def _sample(
        self, step: PlannedStep, ranks: Tuple[int, ...]
    ) -> Tuple[Dict[int, List[SampledBatch]], float]:
        """Run one step's sampling (any thread); returns (result, seconds)."""
        t0 = perf_counter()
        with get_tracer().span(
            "data.prefetch.sample",
            category="data",
            step=step.index,
            k=len(step.batches),
            ranks=len(ranks),
        ):
            result = sample_step(self.sampler, step, ranks)
        return result, perf_counter() - t0

    def _record_step(self, stall_s: float, sample_s: float, queue_depth: int) -> None:
        self.stats.steps += 1
        self.stats.stall_seconds += stall_s
        self.stats.sample_seconds += sample_s
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, queue_depth)
        metrics = get_metrics()
        metrics.counter("data.prefetch.steps").add(1)
        metrics.counter("data.prefetch.stall_seconds").add(stall_s)
        metrics.counter("data.prefetch.sample_seconds").add(sample_s)
        metrics.gauge("data.prefetch.workers").set(self.workers)
        metrics.gauge("data.prefetch.queue_depth").set(queue_depth)
        metrics.histogram("data.prefetch.queue_depth_dist").observe(queue_depth)
        metrics.histogram("data.prefetch.stall_s").observe(stall_s)

    def _record_recompute(self) -> None:
        self.stats.recomputed_steps += 1
        get_metrics().counter("data.prefetch.recomputed_steps").add(1)

    # ------------------------------------------------------------------
    def iter_epoch(
        self,
        plan: EpochPlan,
        ranks_fn: Callable[[], Tuple[int, ...]],
        start: int = 0,
    ) -> Iterator[Tuple[PlannedStep, Dict[int, List[SampledBatch]]]]:
        """Yield ``(step, per-rank sampled batches)`` for ``plan.steps[start:]``.

        ``ranks_fn`` is polled at submission and again at consumption;
        if the live rank set changed while a step sat in the queue (an
        elastic eviction), the step is recomputed against the current
        ranks from its child seed — results therefore never depend on
        prefetch timing.  Closing the iterator settles the queue: steps
        not started are cancelled, running ones waited for.
        """
        tracer = get_tracer()
        ahead, mode = (self.depth, "prefetch") if self.workers else (0, "sync")
        todo = iter(plan.steps[start:])
        queue: deque = deque()  # (step, ranks at submission, future), oldest first

        def top_up() -> None:
            for step in islice(todo, ahead - len(queue)):
                ranks = tuple(ranks_fn())
                queue.append((step, ranks, submit(self._sample, step, ranks)))

        try:
            top_up()
            while queue or (inline := next(todo, None)) is not None:
                step, ranks, future = queue.popleft() if queue else (inline, None, None)
                queue_depth = len(queue) + (future is not None)
                t0 = perf_counter()
                with tracer.span(
                    "data.prefetch.next", category="data", step=step.index, mode=mode
                ) as span:
                    result, sample_s = future.result() if future else (None, 0.0)
                    stall_s = perf_counter() - t0 if future else 0.0
                    live = tuple(ranks_fn())
                    if live != ranks:
                        if future is not None:
                            # rank set changed while queued (elastic eviction):
                            # recompute from the same child seed — bit-exact
                            # with a run that never prefetched.
                            self._record_recompute()
                            span.set(recomputed=True)
                        result, inline_s = self._sample(step, live)
                        stall_s += inline_s
                        sample_s += inline_s
                    span.set(stall_s=stall_s, queue_depth=queue_depth)
                top_up()
                self._record_step(stall_s, sample_s, queue_depth)
                yield step, result
        finally:
            settle(future for _, _, future in queue)
