"""Sparse-matrix scatter/gather kernels for the IGNN hot path.

Algorithm 1's ``REDUCTION(Y, A.rows, +)`` is a sparse-matrix product:
with ``S`` the ``(num_segments, m)`` incidence matrix of an index array
(``S[s, j] = 1`` iff ``index[j] == s``), the segment sum of ``(m, f)``
values is ``S @ values`` — the same formulation (and the same
``scipy.sparse`` CSR kernels) the bulk sampler uses for ``Q <- Q.A``.

:class:`ScatterPlan` holds the incidence operators of one index array;
:func:`scatter_add_rows` is the product and :func:`gather_rows_out` its
transpose (``values[index]``).  A plan is a value its owner keeps: an
:class:`repro.graph.EventGraph` builds the plans of its ``rows`` and
``cols`` once (:attr:`repro.graph.EventGraph.plans`), and the autograd
ops in :mod:`repro.tensor.ops` turn their index into a plan once and
keep it in their backward closures.  Both kernels also accept a bare
index array, for which they build a throwaway plan.

Summation order: the operator comes out of scipy's COO→CSR pass, a
counting sort that keeps a segment's rows in original edge order, so
each segment is accumulated sequentially in edge order — the order
``np.add.at`` uses, and a pure function of the segment's own element
sequence, which is what "same arrays, same shape -> same bits" in the
serving parity contract rests on.

Ids are validated where the plan is built: it records the array's min
and max once, and every kernel compares them to its bound in O(1)
before any C loop runs (:meth:`ScatterPlan.check`).  An id outside
``[0, bound)`` raises ``IndexError``; nothing wraps and nothing is
scanned per call.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ScatterPlan",
    "scatter_add_rows",
    "gather_rows_out",
]


class ScatterPlan:
    """The incidence operators of one ``(m,)`` integer index array.

    Attributes
    ----------
    index:
        The ``int64`` index array itself.
    lo, hi:
        Smallest and largest id (``0`` / ``-1`` for an empty array),
        recorded once so bounds checks never rescan the array.
    """

    __slots__ = ("index", "lo", "hi", "_operators", "__weakref__")

    def __init__(self, index: np.ndarray) -> None:
        self.index = np.asarray(index, dtype=np.int64)
        self.lo, self.hi = (int(self.index.min()), int(self.index.max())) if self.length else (0, -1)
        self._operators: dict = {}

    @classmethod
    def of(cls, index: Union["ScatterPlan", np.ndarray]) -> "ScatterPlan":
        """``index`` itself if it is a plan, else a new plan of it."""
        return index if isinstance(index, cls) else cls(index)

    @property
    def length(self) -> int:
        """Number of indexed rows ``m``."""
        return self.index.shape[0]

    def check(self, bound: int) -> None:
        """Raise ``IndexError`` unless every id lies in ``[0, bound)``."""
        if self.lo < 0 or self.hi >= bound:
            bad = self.lo if self.lo < 0 else self.hi
            raise IndexError(f"index {bad} is out of bounds for {bound} segments")

    def operator(self, num_segments: int, dtype) -> sp.csr_matrix:
        """The ``(num_segments, m)`` CSR incidence matrix of the index.

        One linear COO→CSR pass: ``indices`` lists a segment's rows in
        edge order (the identity for CSR-ordered adjacencies), ``indptr``
        the running segment counts, and ``data`` is ones of ``dtype`` —
        the values' dtype, or scipy would upcast a float32 product to
        float64.  Built once per ``(num_segments, dtype)``; a concurrent
        duplicate build stores an equal operator.
        """
        key = (num_segments, np.dtype(dtype).char)
        op = self._operators.get(key)
        if op is None:
            self.check(num_segments)
            m = self.length
            op = self._operators[key] = sp.csr_matrix(
                (np.ones(m, dtype=dtype), (self.index, np.arange(m))),
                shape=(num_segments, m),
            )
        return op


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def scatter_add_rows(
    values: np.ndarray, index: Union[ScatterPlan, np.ndarray], num_segments: int
) -> np.ndarray:
    """Segment-sum ``values`` rows into ``num_segments`` buckets.

    Drop-in replacement for ``out = zeros(...); np.add.at(out, index,
    values)``: the product of the incidence operator of ``index``
    (:meth:`ScatterPlan.operator`) with ``values``, summing each segment
    in edge order.

    Parameters
    ----------
    values:
        ``(m, f)`` or ``(m,)`` rows to scatter (any strides).
    index:
        ``(m,)`` destination row per value row, or its
        :class:`ScatterPlan`; an id outside ``[0, num_segments)`` raises
        ``IndexError``.
    num_segments:
        Output row count.
    """
    values = np.asarray(values)
    plan = ScatterPlan.of(index)
    if values.ndim == 1:
        plan.check(num_segments)
        summed = np.bincount(plan.index, weights=values, minlength=num_segments)
        return summed.astype(values.dtype, copy=False)
    shape = (num_segments,) + values.shape[1:]
    operator = plan.operator(num_segments, values.dtype)
    flat = values.reshape(plan.length, math.prod(shape[1:]))  # no-op for (m, f)
    return (operator @ flat).reshape(shape)


def gather_rows_out(
    values: np.ndarray,
    index: Union[ScatterPlan, np.ndarray],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row gather ``values[index]`` for ids in ``[0, len(values))``.

    The plan's recorded bounds are checked first, so the gather itself
    runs with ``mode="clip"``: numpy's default ``mode="raise"`` stages the
    whole result in a bounce buffer whenever ``out`` is given.
    """
    plan = ScatterPlan.of(index)
    plan.check(values.shape[0])
    return np.take(values, plan.index, axis=0, out=out, mode="clip")
