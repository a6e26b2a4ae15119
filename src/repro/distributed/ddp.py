"""Distributed data parallelism over simulated ranks.

Each simulated rank holds a full model replica; a batch is split into
``P`` shards (Section IV-C: local batch size 256/P), every rank runs
forward/backward on its shard, and gradients are synchronised with an
all-reduce before the (identical) optimiser step.  Two synchronisation
strategies are provided:

* ``"per_parameter"`` — one all-reduce call per parameter matrix (the
  baseline whose latency the paper attacks);
* ``"coalesced"`` — gradients stacked into a single flat buffer, one
  all-reduce per step (Section III-D).

The ranks' replicas live in one process (their steps run on the trainer's
lanes, one thread each), so wall-clock here measures algorithmic work;
communication *time* comes from the α–β cost model accumulated in the
communicator's stats.  Gradient math is bit-comparable to true DDP:
the property tests check that P-rank training equals single-rank training
on the union batch.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..faults import CommError, RetryPolicy, SimClock
from ..nn import Module
from ..obs import get_tracer
from .backend import CommBackend
from .coalesce import flatten_arrays, gradient_arrays, unflatten_array
from .supervisor import record_supervisor_event

__all__ = ["ALLREDUCE_STRATEGIES", "DistributedDataParallel", "replicate_model"]

#: Gradient-sync strategies accepted by :class:`DistributedDataParallel`,
#: ``GNNTrainConfig.allreduce`` and the CLI's ``--allreduce`` flag.
ALLREDUCE_STRATEGIES = ("coalesced", "per_parameter")


def replicate_model(factory: Callable[[], Module], world_size: int) -> List[Module]:
    """Build ``world_size`` identical replicas.

    The factory must be deterministic (seeded); replica 0's weights are
    broadcast over the others to guarantee bit-identical starting points
    even if the factory were not.
    """
    models = [factory() for _ in range(world_size)]
    reference = models[0].state_dict()
    for m in models[1:]:
        m.load_state_dict(reference)
    return models


class DistributedDataParallel:
    """Gradient synchronisation across model replicas.

    Parameters
    ----------
    models:
        One replica per rank, identically initialised.
    comm:
        Any :class:`~repro.distributed.backend.CommBackend` — the
        in-process simulator or the multi-process ``proc`` backend
        (both accumulate call/byte/modeled-time stats).
    strategy:
        ``"coalesced"`` (default, the paper's optimisation) or
        ``"per_parameter"`` (the baseline).
    retry_policy:
        Backoff schedule for *transient* collective faults
        (:class:`repro.faults.CommError` with ``transient=True``).
        Retries run on a deterministic simulated clock; exhaustion
        re-raises the original error.
    clock:
        Simulated clock charged by retry backoff (defaults to a fresh
        :class:`repro.faults.SimClock`).

    Fault tolerance: a *permanent* rank failure during a collective
    triggers **elastic degradation** — the dead rank's replica is
    dropped, the communicator shrinks to the survivors, the gradient
    average rescales to the new world size, and the synchronisation is
    retried over the survivors.  :attr:`global_ranks` preserves the
    original rank ids of the live replicas.
    """

    def __init__(
        self,
        models: Sequence[Module],
        comm: CommBackend,
        strategy: str = "coalesced",
        retry_policy: Optional[RetryPolicy] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        if len(models) != comm.world_size:
            raise ValueError(
                f"{len(models)} replicas for a world of {comm.world_size}"
            )
        if strategy not in ALLREDUCE_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {ALLREDUCE_STRATEGIES}"
            )
        names = [tuple(name for name, _ in m.named_parameters()) for m in models]
        if any(n != names[0] for n in names[1:]):
            raise ValueError("replicas disagree on parameter names/order")
        self.models = list(models)
        self.comm = comm
        self.strategy = strategy
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else SimClock()

    @property
    def world_size(self) -> int:
        """Number of *live* replicas."""
        return self.comm.world_size

    @property
    def global_ranks(self) -> List[int]:
        """Original rank ids of the live replicas: ``comm.ranks`` itself."""
        return self.comm.ranks

    # ------------------------------------------------------------------
    def synchronize_gradients(self, arrive: Optional[Callable[[], None]] = None) -> None:
        """Average gradients across live ranks, in place.

        After this call every surviving replica's ``param.grad`` holds
        the mean gradient over the survivors, exactly as after
        ``torch.nn.parallel.DDP`` backward.  Transient collective faults
        are retried with backoff; a permanent rank failure evicts the
        rank (see :meth:`drop_rank`) and re-synchronises the survivors.

        ``arrive``, run once before the first collective and not on a
        retry, is where the ranks meet: it waits for the rank steps still
        running and judges them, so the wait for the slowest rank counts
        as sync time, as a real all-reduce's does.  If it raises, no
        gradient is reduced.
        """
        if arrive is not None:
            arrive()
        retries_left = self.retry_policy.max_retries
        stale_budget = len(self.global_ranks)
        need_resync = False
        while True:
            try:
                if need_resync:
                    self._resync_parameters()
                    need_resync = False
                self._sync_once()
                return
            except CommError as err:
                if err.transient:
                    if retries_left <= 0:
                        raise  # budget exhausted: surface the original fault
                    retry_index = self.retry_policy.max_retries - retries_left
                    delay = self.retry_policy.delay(retry_index)
                    self.clock.sleep(delay)
                    self.comm.stats.num_retries += 1
                    self.comm.stats.retry_backoff_seconds += delay
                    get_tracer().event(
                        "comm.retry",
                        category="fault",
                        rank=err.rank,
                        retry_index=retry_index,
                        backoff_s=delay,
                    )
                    retries_left -= 1
                elif (
                    err.rank is not None and err.rank not in self.global_ranks
                ):
                    # A permanent failure naming an already-evicted rank: a
                    # stale/duplicate report (e.g. a late failure detection
                    # for a rank a previous collective dropped).  The rank
                    # is already gone, so the failure is already handled —
                    # re-evicting would crash on remove_rank.  A small
                    # budget guards against a reporter wedged on the same
                    # stale rank forever.
                    if stale_budget <= 0:
                        raise
                    stale_budget -= 1
                    self.comm.stats.record_event(
                        f"ignoring stale failure report for already-evicted "
                        f"rank {err.rank}"
                    )
                    get_tracer().event(
                        "comm.stale_failure_ignored",
                        category="fault",
                        rank=err.rank,
                    )
                    retries_left = self.retry_policy.max_retries
                else:
                    failed = err.rank if err.rank is not None else self.global_ranks[-1]
                    self.drop_rank(failed)
                    get_tracer().event(
                        "comm.rank_evicted",
                        category="fault",
                        rank=failed,
                        survivors=len(self.global_ranks),
                    )
                    retries_left = self.retry_policy.max_retries
                    need_resync = self.comm.requires_resync

    def _sync_once(self) -> None:
        if self.strategy == "coalesced":
            self._sync_coalesced()
        else:
            self._sync_per_parameter()

    def _resync_parameters(self) -> None:
        """Re-align survivor replicas after an eviction (proc backend).

        On a real multi-process backend an eviction interrupts a
        collective mid-flight, so the supervisor re-establishes a known
        state by broadcasting the lowest live rank's parameters to every
        survivor.  Replicas are identical before the failed collective
        (they only drift *within* one), so the broadcast is numerically
        a no-op — which is what keeps a proc-backend chaos run bit-exact
        with its sim-backend eviction replay.
        """
        flat, specs = flatten_arrays([p.data for p in self.models[0].parameters()])
        if not specs:
            return
        # float64 on the wire whatever the parameter dtype: exact for
        # float32 and float64 alike, and the same bytes charged either way
        synced = self.comm.broadcast(flat.astype(np.float64))
        for m, vec in zip(self.models, synced):
            for p, chunk in zip(m.parameters(), unflatten_array(vec, specs)):
                p.data[...] = chunk
        get_tracer().event(
            "comm.resync",
            category="fault",
            root=self.global_ranks[0],
            survivors=len(self.global_ranks),
        )
        record_supervisor_event(
            "resync_broadcast",
            root=self.global_ranks[0],
            survivors=len(self.global_ranks),
        )

    # ------------------------------------------------------------------
    def drop_rank(self, global_rank: int) -> Module:
        """Evict a permanently failed rank; returns the dead replica.

        The communicator shrinks to the survivors and subsequent
        all-reduces divide by the new world size — the elastic
        degradation path of a production job losing a node mid-run.
        """
        return self.models.pop(self.comm.remove_rank(global_rank))

    def _sync_per_parameter(self) -> None:
        params_per_rank = [list(m.parameters()) for m in self.models]
        num_params = len(params_per_rank[0])
        for i in range(num_params):
            buffers = []
            for rank in range(self.world_size):
                p = params_per_rank[rank][i]
                buffers.append(
                    p.grad if p.grad is not None else np.zeros_like(p.data)
                )
            reduced = self.comm.allreduce(buffers, average=True)
            for rank in range(self.world_size):
                params_per_rank[rank][i].grad = reduced[rank]

    def _sync_coalesced(self) -> None:
        flats = []
        specs = None
        for m in self.models:
            flat, specs = flatten_arrays(gradient_arrays(m))
            flats.append(flat)
        reduced = self.comm.allreduce(flats, average=True)
        for m, flat in zip(self.models, reduced):
            grads = unflatten_array(flat, specs)
            for (_, p), g in zip(m.named_parameters(), grads):
                p.grad = g.astype(p.data.dtype, copy=False)

    # ------------------------------------------------------------------
    def assert_in_sync(self, atol: float = 0.0) -> None:
        """Raise if replicas' weights have drifted apart (test helper)."""
        reference = self.models[0].state_dict()
        for rank, m in enumerate(self.models[1:], start=1):
            for name, arr in m.state_dict().items():
                if not np.allclose(arr, reference[name], atol=atol, rtol=0.0):
                    raise AssertionError(
                        f"rank {rank} parameter {name!r} diverged from rank 0"
                    )
