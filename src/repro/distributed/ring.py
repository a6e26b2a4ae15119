"""The ring all-reduce: one schedule, executed by every backend.

A faithful implementation of the NCCL-style ring algorithm: each rank's
buffer is split into ``P`` chunks; ``P-1`` reduce-scatter steps circulate
and accumulate chunks around the ring, then ``P-1`` all-gather steps
circulate the finished chunks.  Every step is performed explicitly so the
algorithm — and its step/byte counts, which feed the α–β cost model — is
the real one, not a shortcut ``np.sum``.

The schedule is data: :func:`ring_schedule` lists, for one ring position,
what each step does (:class:`RingStep`).  :func:`ring_allreduce` (the
``sim`` backend) runs the ``P`` shares in lock-step in one process; a
``proc`` worker (:mod:`repro.distributed.proc_backend`) runs its one share
between real barriers.  Both go through :func:`staged_allreduce` for
everything that is not the exchange itself, so the two backends agree to
the last bit because they execute the same definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Sequence

import numpy as np

__all__ = ["RingAllReduceStats", "ring_allreduce"]


@dataclass
class RingAllReduceStats:
    """Byte/step accounting of one ring all-reduce."""

    world_size: int = 0
    steps: int = 0
    bytes_sent_per_rank: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent_per_rank * self.world_size


class RingStep(NamedTuple):
    """One step of one rank's share: chunk ``[lo, hi)`` moves from the
    left neighbour's buffer into this rank's."""

    reduce: bool  # accumulate (reduce-scatter) or overwrite (all-gather)
    step: int  # index within its phase
    chunk: int
    lo: int
    hi: int
    barrier: bool  # the whole ring must have finished the previous step

    def run(self, mine: np.ndarray, theirs: np.ndarray) -> int:
        """Execute the step on flat float64 buffers; returns bytes moved."""
        if self.reduce:
            mine[self.lo : self.hi] += theirs[self.lo : self.hi]
        else:
            mine[self.lo : self.hi] = theirs[self.lo : self.hi]
        return (self.hi - self.lo) * mine.itemsize


def chunk_bounds(n: int, p: int) -> np.ndarray:
    """Cut ``[0, n)`` into ``p`` contiguous near-equal chunks: chunk ``c``
    is ``[bounds[c], bounds[c + 1])`` (empty chunks when ``n < p``)."""
    return np.linspace(0, n, p + 1).astype(np.int64)


def ring_schedule(pos: int, p: int, n: int) -> List[RingStep]:
    """The share of ring position ``pos`` in a ``p``-rank all-reduce of
    ``n`` elements.

    Within a step every rank reads a chunk of its left neighbour that
    nobody writes in that step (the neighbour writes the chunk before
    it), so the shares of one step may run in any order or concurrently;
    across steps a rank reads what its neighbour wrote in the step
    before, hence a barrier ahead of every step but the first (which
    reads only staged input).
    """
    bounds = chunk_bounds(n, p).tolist()
    share: List[RingStep] = []
    # reduce-scatter: step s receives the partial sum of chunk (pos-1-s),
    # leaving this rank the fully reduced chunk (pos + 1) % p;
    # all-gather: step s receives finished chunk (pos - s)
    for reduce, first in ((True, pos - 1), (False, pos)):
        for s in range(p - 1):
            c = (first - s) % p
            share.append(
                RingStep(reduce, s, c, bounds[c], bounds[c + 1], barrier=bool(share))
            )
    return share


def ring_barriers(p: int) -> int:
    """Barriers one ``p``-rank all-reduce crosses (the same at every position)."""
    return sum(step.barrier for step in ring_schedule(0, p, 0))


def staged_allreduce(
    buffers: Sequence[np.ndarray],
    average: bool,
    exchange: Callable[[List[np.ndarray]], List[np.ndarray]],
) -> List[np.ndarray]:
    """Everything about an all-reduce except the exchange.

    Checks the per-rank buffers, stages them as flat float64 working
    copies (so the accumulation order cannot drift from the direct sum
    beyond normal rounding), hands those to ``exchange`` — which returns
    the reduced float64 buffers, in place or fresh; skipped for a single
    rank — then scales and casts back to the input shape and dtype.
    """
    p = len(buffers)
    if p == 0:
        raise ValueError("need at least one rank")
    shape, dtype = buffers[0].shape, buffers[0].dtype
    for b in buffers:
        if b.shape != shape:
            raise ValueError("all rank buffers must share a shape")
    work = [b.astype(np.float64).reshape(-1) for b in buffers]
    if p > 1:
        work = exchange(work)
    scale = 1.0 / p if average else 1.0
    return [(w * scale).reshape(shape).astype(dtype) for w in work]


def ring_allreduce(
    buffers: Sequence[np.ndarray],
    average: bool = False,
    stats: RingAllReduceStats | None = None,
) -> List[np.ndarray]:
    """All-reduce ``buffers`` (one per rank) with the ring algorithm.

    Parameters
    ----------
    buffers:
        One equally-shaped float array per rank.  Inputs are not modified.
    average:
        Divide the result by the rank count (DDP averages gradients).
    stats:
        Optional accounting sink.

    Returns
    -------
    list of np.ndarray
        The reduced (identical) buffer per rank.
    """

    def lockstep(work: List[np.ndarray]) -> List[np.ndarray]:
        p = len(work)
        shares = [ring_schedule(pos, p, work[0].shape[0]) for pos in range(p)]
        moved = 0
        for steps in zip(*shares):
            for pos, step in enumerate(steps):
                moved += step.run(work[pos], work[pos - 1])
        if stats is not None:
            stats.world_size = p
            stats.steps = len(shares[0])
            stats.bytes_sent_per_rank = moved // p  # per-rank average
        return work

    return staged_allreduce(buffers, average, lockstep)
