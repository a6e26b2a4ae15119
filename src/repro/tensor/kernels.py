"""Sparse-matrix scatter/gather kernels for the IGNN hot path.

Algorithm 1's ``REDUCTION(Y, A.rows, +)`` is a sparse-matrix product:
with ``S`` the ``(num_segments, m)`` incidence matrix of an index array
(``S[s, j] = 1`` iff ``index[j] == s``), the segment sum of ``(m, f)``
values is ``S @ values`` — the same formulation (and the same
``scipy.sparse`` CSR kernels) the bulk sampler uses for ``Q <- Q.A``.

:class:`ScatterPlan` is the cached incidence operator of one index
array; :func:`scatter_add_rows` is the product and
:func:`gather_rows_out` its transpose (``values[index]``).  The autograd
ops in :mod:`repro.tensor.ops` and the distributed call sites
(:mod:`repro.distributed.partitioned_gnn`,
:mod:`repro.distributed.compression`) build on them.

Summation order: the operator's column indices are the *stable* argsort
of the index array, so each segment is accumulated sequentially, in
original edge order — the order ``np.add.at`` uses, and a pure function
of the segment's own element sequence, which is what "same arrays, same
shape -> same bits" in the serving parity contract rests on.

Ids are validated where the plan is built: it records the array's min
and max once, and every kernel compares them to its bound in O(1)
before any C loop runs (:meth:`ScatterPlan.check`).  An id outside
``[0, bound)`` raises ``IndexError``; nothing wraps and nothing is
scanned per call.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ScatterPlan",
    "scatter_plan",
    "scatter_add_rows",
    "scatter_add_1d",
    "gather_rows_out",
]


class ScatterPlan:
    """Cached incidence operator of one ``(m,)`` integer index array.

    Attributes
    ----------
    length:
        Number of indexed rows ``m``.
    lo, hi:
        Smallest and largest id (``0`` / ``-1`` for an empty array),
        recorded once so bounds checks never rescan the array.
    """

    __slots__ = ("length", "lo", "hi", "_operators")

    def __init__(self, index: np.ndarray) -> None:
        self.length = index.shape[0]
        self.lo, self.hi = (int(index.min()), int(index.max())) if self.length else (0, -1)
        self._operators: dict = {}

    def check(self, bound: int) -> None:
        """Raise ``IndexError`` unless every id lies in ``[0, bound)``."""
        if self.lo < 0 or self.hi >= bound:
            bad = self.lo if self.lo < 0 else self.hi
            raise IndexError(f"index {bad} is out of bounds for {bound} segments")

    def operator(self, index: np.ndarray, num_segments: int, dtype) -> sp.csr_matrix:
        """The ``(num_segments, m)`` CSR incidence matrix of ``index``.

        ``indices`` is the stable argsort (a segment's rows in edge
        order; the identity for CSR-ordered adjacencies), ``indptr`` the
        running segment counts, and ``data`` ones of ``dtype`` — the
        values' dtype, or scipy would upcast a float32 product to
        float64.  Built once per ``(num_segments, dtype)``; a concurrent
        duplicate build stores an equal operator.
        """
        key = (num_segments, np.dtype(dtype).char)
        op = self._operators.get(key)
        if op is None:
            self.check(num_segments)
            indptr = np.zeros(num_segments + 1, dtype=np.int64)
            np.cumsum(np.bincount(index, minlength=num_segments), out=indptr[1:])
            op = self._operators[key] = sp.csr_matrix(
                (np.ones(self.length, dtype=dtype), np.argsort(index, kind="stable"), indptr),
                shape=(num_segments, self.length),
            )
        return op


# Plan cache keyed by index-array identity.  Each entry holds a weak
# reference whose callback drops the entry when the array dies, so a
# streamed epoch's short-lived ``rows``/``cols`` do not pin their CSR
# operators; the LRU bound only caps the plans of *live* arrays.  The
# cache assumes the cached arrays are not mutated in place — true for
# every ``EventGraph.edge_index`` consumer in the pipeline.
_PLAN_CACHE: "OrderedDict[int, Tuple[weakref.ref, ScatterPlan]]" = OrderedDict()
_PLAN_CACHE_MAX = 128
_PLAN_LOCK = threading.Lock()


def _drop_dead_plan(ref: weakref.ref, key: int) -> None:
    # Runs wherever the array's last reference goes away — possibly
    # inside a ``with _PLAN_LOCK`` block of this very thread, so it must
    # not take the lock.  The id may already belong to a new array: pop
    # only the entry that still holds *this* weakref.
    entry = _PLAN_CACHE.get(key)
    if entry is not None and entry[0] is ref:
        _PLAN_CACHE.pop(key, None)


def scatter_plan(index: np.ndarray) -> ScatterPlan:
    """Return (building and caching if needed) the plan for ``index``."""
    index = np.asarray(index)
    key = id(index)
    with _PLAN_LOCK:
        entry = _PLAN_CACHE.get(key)
        if entry is not None and entry[0]() is index:
            _PLAN_CACHE.move_to_end(key)
            return entry[1]
    plan = ScatterPlan(index)
    ref = weakref.ref(index, lambda r: _drop_dead_plan(r, key))
    with _PLAN_LOCK:
        _PLAN_CACHE[key] = (ref, plan)
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan (test hook)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def scatter_add_rows(
    values: np.ndarray,
    index: np.ndarray,
    num_segments: int,
    out: Optional[np.ndarray] = None,
    plan: Optional[ScatterPlan] = None,
    accumulate: bool = False,
) -> np.ndarray:
    """Segment-sum ``values`` rows into ``num_segments`` buckets.

    Drop-in replacement for ``out = zeros(...); np.add.at(out, index,
    values)``: the product of the cached incidence operator of ``index``
    (:meth:`ScatterPlan.operator`) with ``values``, summing each segment
    in edge order.

    Parameters
    ----------
    values:
        ``(m, f)`` or ``(m,)`` rows to scatter (any strides).
    index:
        ``(m,)`` destination row per value row; an id outside
        ``[0, num_segments)`` raises ``IndexError``.
    num_segments:
        Output row count.
    out:
        Optional destination (overwritten unless ``accumulate``).  Shape
        must be ``(num_segments,) + values.shape[1:]``.
    plan:
        Precomputed :func:`scatter_plan` of ``index``.
    accumulate:
        Add segment sums onto the existing contents of ``out`` instead of
        overwriting (the partitioned-GNN halo reduction accumulates one
        rank's partial sums at a time).
    """
    values = np.asarray(values)
    index = np.asarray(index)
    shape = (num_segments,) + values.shape[1:]
    if out is not None and out.shape != shape:
        raise ValueError(f"out shape {out.shape} != {shape}")
    if plan is None:
        plan = scatter_plan(index)
    if values.ndim == 1:
        plan.check(num_segments)
        summed = np.bincount(index, weights=values, minlength=num_segments)
        summed = summed.astype(values.dtype, copy=False)
    else:
        operator = plan.operator(index, num_segments, values.dtype)
        flat = values.reshape(plan.length, math.prod(shape[1:]))  # no-op for (m, f)
        summed = (operator @ flat).reshape(shape)
    if out is None:
        return summed
    if accumulate:
        out += summed
    else:
        out[...] = summed
    return out


def scatter_add_1d(
    values: np.ndarray,
    index: np.ndarray,
    num_segments: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """1-D scatter-add via ``np.bincount``, accumulated onto ``out``."""
    return scatter_add_rows(values, index, num_segments, out=out, accumulate=True)


def gather_rows_out(
    values: np.ndarray, index: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row gather ``values[index]`` for ids in ``[0, len(values))``.

    The plan's recorded bounds are checked first, so the gather itself
    runs with ``mode="clip"``: numpy's default ``mode="raise"`` stages the
    whole result in a bounce buffer whenever ``out`` is given.
    """
    scatter_plan(index).check(values.shape[0])
    return np.take(values, index, axis=0, out=out, mode="clip")
