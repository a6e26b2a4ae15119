"""Alternative all-reduce algorithms and their cost models.

NCCL picks between algorithms (ring, tree, ...) by message size and
topology; the paper's coalescing optimisation changes *which regime* the
gradient messages fall into, so the algorithm ablation bench compares the
regimes under each algorithm:

* **ring** (:mod:`repro.distributed.ring`) — bandwidth-optimal,
  latency 2(P-1)α;
* **recursive halving–doubling** — a reduce-scatter by recursive halving
  followed by an all-gather by recursive doubling; latency 2 log₂P α,
  bandwidth-optimal for power-of-two rank counts;
* **binary tree** — reduce up a tree then broadcast down; latency
  2 log₂P α but bandwidth 2 n β log₂P-ish for small trees (modeled here
  with the standard 2 log₂P (α + n β) form).

All implementations operate on one buffer per simulated rank and are
verified against the direct sum in the property tests.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from .ring import staged_allreduce

__all__ = [
    "halving_doubling_allreduce",
    "tree_allreduce",
    "halving_doubling_time",
    "tree_time",
    "ALLREDUCE_ALGORITHMS",
]


def halving_doubling_allreduce(
    buffers: Sequence[np.ndarray], average: bool = False
) -> List[np.ndarray]:
    """Recursive halving–doubling all-reduce.

    Requires a power-of-two rank count (as the classical algorithm does;
    NCCL pads otherwise).  Works in float64 internally.
    """
    p = len(buffers)
    if p & (p - 1):
        raise ValueError(f"halving-doubling requires power-of-two ranks, got {p}")

    def exchange(work: List[np.ndarray]) -> List[np.ndarray]:
        n = work[0].shape[0]
        # reduce-scatter by recursive halving: at step s, partner is r ^ 2^s
        # and each pair exchanges half of its currently-owned range.
        ranges = [(0, n)] * p
        step = 1
        while step < p:
            new_work = [w.copy() for w in work]
            new_ranges = list(ranges)
            for r in range(p):
                partner = r ^ step
                lo, hi = ranges[r]
                mid = (lo + hi) // 2
                # receive the partner's contribution for our kept half
                klo, khi = keep = (lo, mid) if r < partner else (mid, hi)
                new_work[r][klo:khi] = work[r][klo:khi] + work[partner][klo:khi]
                new_ranges[r] = keep
            work, ranges = new_work, new_ranges
            step *= 2

        # all-gather by recursive doubling: reverse the exchange pattern.
        step = p // 2
        while step >= 1:
            new_work = [w.copy() for w in work]
            new_ranges = list(ranges)
            for r in range(p):
                partner = r ^ step
                plo, phi = ranges[partner]
                new_work[r][plo:phi] = work[partner][plo:phi]
                lo, hi = ranges[r]
                new_ranges[r] = (min(lo, plo), max(hi, phi))
            work, ranges = new_work, new_ranges
            step //= 2
        return work

    return staged_allreduce(buffers, average, exchange)


def tree_allreduce(
    buffers: Sequence[np.ndarray], average: bool = False
) -> List[np.ndarray]:
    """Binary-tree all-reduce: reduce to rank 0 up a binomial tree, then
    broadcast back down.  Works for any rank count."""

    def exchange(work: List[np.ndarray]) -> List[np.ndarray]:
        p = len(work)
        # reduce up: at step s, ranks with (r % 2^{s+1}) == 2^s send to r - 2^s
        step = 1
        while step < p:
            for r in range(0, p, 2 * step):
                src = r + step
                if src < p:
                    work[r] += work[src]
            step *= 2
        # broadcast down
        step //= 2
        while step >= 1:
            for r in range(0, p, 2 * step):
                dst = r + step
                if dst < p:
                    work[dst][:] = work[r]
            step //= 2
        return work

    return staged_allreduce(buffers, average, exchange)


def halving_doubling_time(nbytes: int, world_size: int, alpha: float, beta: float) -> float:
    """α–β model: 2 log₂P α + 2 (P-1)/P n β (bandwidth-optimal)."""
    if world_size <= 1:
        return 0.0
    logp = math.log2(world_size)
    return 2.0 * logp * alpha + 2.0 * (world_size - 1) / world_size * nbytes * beta


def tree_time(nbytes: int, world_size: int, alpha: float, beta: float) -> float:
    """α–β model: 2 log₂P (α + n β) — the full buffer moves at each level."""
    if world_size <= 1:
        return 0.0
    logp = math.ceil(math.log2(world_size))
    return 2.0 * logp * (alpha + nbytes * beta)


ALLREDUCE_ALGORITHMS = ("ring", "halving_doubling", "tree")
