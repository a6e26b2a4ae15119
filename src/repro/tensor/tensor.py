"""A minimal reverse-mode automatic differentiation engine on NumPy.

This module stands in for PyTorch in the reproduction: the Interaction GNN
(Algorithm 1 of the paper) is a tensor program built from dense matmuls,
concatenations, row gathers (``X[A.rows]``), and segment sums (the ``AGG``
reduction).  :class:`Tensor` wraps a :class:`numpy.ndarray` and records the
operations applied to it so that :meth:`Tensor.backward` can propagate
gradients through the recorded graph.

Design notes
------------
* The graph is built eagerly: each differentiable operation returns a new
  :class:`Tensor` holding references to its parents and a closure that maps
  the output gradient to a tuple of parent gradients (one entry per parent,
  ``None`` for parents that do not require grad).
* Gradients accumulate into ``Tensor.grad`` only on *leaf* tensors (the
  parameters); interior gradients live in a staging table for the duration
  of :meth:`Tensor.backward` and are freed as soon as they are consumed,
  which keeps the memory profile of an 8-layer IGNN backward pass bounded.
  A nested walk may stage its leaf gradients in a dict instead
  (``backward(seed, into=...)``), for an op that walks independent
  sub-tapes side by side (:func:`repro.tensor.ops.parts`).
* Backward consumes the graph it walks (PyTorch's default
  ``retain_graph=False``): each node gives up its closure and parents as
  soon as it is differentiated, so the arrays it saved die with their last
  consumer instead of outliving the whole pass.  A second backward through
  a consumed graph raises ``RuntimeError``; re-run the forward instead.
* Nodes run newest first, so a tensor's gradient contributions are summed
  in the reverse of the order its consumers were recorded — a fixed order,
  whatever the graph's shape.
* Shapes follow NumPy broadcasting; gradient closures un-broadcast by
  summing over the broadcast axes (see :func:`unbroadcast`).
* ``float32`` is the default dtype (as in the paper's training runs); the
  finite-difference gradient checks in the test-suite build ``float64``
  tensors for accuracy.

Only the operations the pipeline needs are implemented; they live in
:mod:`repro.tensor.ops` and are re-exported from :mod:`repro.tensor`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "asarray",
    "astensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "DEFAULT_DTYPE",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
]

#: Historic engine default (the paper trains in float32).  The *active*
#: default is dynamic — see :func:`get_default_dtype` — so the pipeline's
#: ``precision`` flag can switch the whole engine to a float64 reference
#: mode without threading a dtype through every call site.
DEFAULT_DTYPE = np.float32

_ALLOWED_DEFAULT_DTYPES = (np.float32, np.float64)
_DTYPE_STATE = threading.local()
_default_dtype_global = np.float32


def _check_default_dtype(dtype):
    dt = np.dtype(dtype).type
    if dt not in _ALLOWED_DEFAULT_DTYPES:
        raise ValueError(
            f"default dtype must be float32 or float64, got {np.dtype(dtype)}"
        )
    return dt


def get_default_dtype():
    """The dtype new float tensors adopt (thread override, then global)."""
    return getattr(_DTYPE_STATE, "dtype", None) or _default_dtype_global


def set_default_dtype(dtype):
    """Set the process-global default float dtype; returns the previous one.

    ``float64`` turns the engine into the high-precision reference mode
    used by the convergence-parity gates; ``float32`` (the default)
    matches the paper's training runs.
    """
    global _default_dtype_global
    previous = _default_dtype_global
    _default_dtype_global = _check_default_dtype(dtype)
    return previous


@contextlib.contextmanager
def default_dtype(dtype):
    """Thread-scoped (re-entrant) override of the default float dtype."""
    dt = _check_default_dtype(dtype)
    previous = getattr(_DTYPE_STATE, "dtype", None)
    _DTYPE_STATE.dtype = dt
    try:
        yield
    finally:
        _DTYPE_STATE.dtype = previous

# Autograd switch, toggled by the `no_grad` context manager.  The
# pipeline's inference paths run under `no_grad()` so that sampling-heavy
# evaluation loops do not accumulate graph nodes.  The switch is a
# per-thread nesting depth, not a process-wide boolean: the serving
# engine's lane threads run inference scopes concurrently, and a
# save/restore global would let out-of-order exits re-enable grad inside
# another worker's scope or leave it disabled for the whole process.
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return getattr(_GRAD_STATE, "no_grad_depth", 0) == 0


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (like ``torch.no_grad``).

    Re-entrant, and scoped to the calling thread."""
    _GRAD_STATE.no_grad_depth = getattr(_GRAD_STATE, "no_grad_depth", 0) + 1
    try:
        yield
    finally:
        _GRAD_STATE.no_grad_depth -= 1


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting in the forward pass replicates values along new or size-1
    axes; the adjoint of replication is summation.  This helper is used by
    every binary-op backward closure.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

# Recording order of tape nodes (`Tensor._seq`; leaves are 0).
_RECORDED = itertools.count(1)


@functools.lru_cache(maxsize=None)
def _keep_freed_heap() -> None:
    """Pin glibc's heap thresholds where its own heuristics peak.

    `Tensor.backward` frees the tape in reverse allocation order, i.e. at
    the top of the heap.  glibc's default trims a free heap top back to
    the OS once it passes a small, adaptive threshold, so the next
    backward temporaries fault those pages in again: a slower training
    step for the same arithmetic (EXPERIMENTS.md, "Backward consumes the
    tape it walks").  Fixing the mmap threshold at 32 MiB and the trim
    threshold at 64 MiB (the adaptive maxima) keeps freed memory in the
    heap for the next allocation, as a caching allocator would.  Runs
    once per process, at its first backward; a no-op where the C library
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _release_freed_heap() -> None:
    """Give the heap's free pages back to the OS now (glibc's
    ``malloc_trim(0)``), whatever :func:`_keep_freed_heap` pinned.  Called
    where a phase that trained ends (``ExaTrkXPipeline.fit``), so what
    runs next — serving — does not inherit the heap it kept; a no-op
    where the C library has no ``malloc_trim``."""
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim(0)


def _consumed(grad):
    """The closure of a node an earlier :meth:`Tensor.backward` walked."""
    raise RuntimeError(
        "backward() reached a graph an earlier backward() already consumed; "
        "run the forward again to record a new one"
    )


# Backward closure signature: output gradient -> one gradient per parent
# (``None`` for parents that don't require grad).
BackwardFn = Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]


def asarray(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to an ndarray, unwrapping :class:`Tensor` inputs."""
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def astensor(value: ArrayLike, dtype=None) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value)
    if dtype is None and not np.issubdtype(arr.dtype, np.integer):
        dtype = get_default_dtype() if arr.dtype != np.float64 else np.float64
    return Tensor(arr if dtype is None else arr.astype(dtype))


class Tensor:
    """An ndarray with an optional autograd tape entry.

    Parameters
    ----------
    data:
        Array data.  Copied only if dtype conversion is required.
    requires_grad:
        If True, gradients accumulate into :attr:`grad` during
        :meth:`backward`.  Non-leaf tensors produced by operations inherit
        ``requires_grad`` from their parents.

    Attributes
    ----------
    data:
        The underlying :class:`numpy.ndarray`.
    grad:
        Accumulated gradient (same shape as ``data``) or ``None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_seq")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        was_ndarray = isinstance(data, (np.ndarray, np.generic))
        arr = np.asarray(data)
        if arr.dtype == np.float64 and not was_ndarray:
            # Python floats/lists adopt the engine default; float64 survives
            # only when passed explicitly as an ndarray (gradcheck inputs).
            self.data = arr.astype(get_default_dtype(), copy=False)
        elif arr.dtype in (np.float32, np.float64):
            self.data = arr
        elif np.issubdtype(arr.dtype, np.floating):
            self.data = arr.astype(get_default_dtype())
        elif np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
            # Integer/bool tensors are allowed (indices, labels); they never
            # require gradients.
            self.data = arr
            if requires_grad:
                raise ValueError("integer tensors cannot require gradients")
        else:
            self.data = arr.astype(get_default_dtype())
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = ()
        self._backward: Optional[BackwardFn] = None
        self._op: str = ""
        self._seq = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False, dtype=None) -> "Tensor":
        """Return a zero-filled tensor of the given shape."""
        dtype = get_default_dtype() if dtype is None else dtype
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False, dtype=None) -> "Tensor":
        """Return a one-filled tensor of the given shape."""
        dtype = get_default_dtype() if dtype is None else dtype
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: BackwardFn,
        op: str = "",
        always: bool = False,
    ) -> "Tensor":
        """Build a non-leaf tensor recording ``backward`` on the tape.

        If autograd is globally disabled or no parent requires a gradient,
        the result is a detached leaf — this is what makes ``no_grad``
        inference cheap.  ``always`` records even when no parent requires
        a gradient, for ops whose ``backward`` reaches tensors that are
        not parents (:func:`repro.tensor.ops.checkpoint`).
        """
        parents = tuple(parents)
        req = is_grad_enabled() and (always or any(p.requires_grad for p in parents))
        out = Tensor(data, requires_grad=req)
        if req:
            out._parents = parents
            out._backward = backward
            out._op = op
            out._seq = next(_RECORDED)
        return out

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None, into: Optional[dict] = None) -> None:
        """Run reverse-mode differentiation from this tensor, consuming
        its graph.

        Every node reachable from this tensor is differentiated once,
        newest first, and released as it is reached: its closure and
        parents are dropped, so what it saved is freed as soon as no
        later node needs it.  Leaves (parameters) and the ``data`` of any
        tensor the caller holds are untouched.  Calling ``backward()``
        again on this tensor, or on a new tensor computed from any node of
        the consumed graph, raises ``RuntimeError``: run the forward again.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1.0 for scalar outputs (the loss);
            non-scalar outputs require an explicit seed.
        into:
            If given, each leaf's gradient from this pass is stored here
            (``{leaf: array}``) and no ``.grad`` is touched: a walk that
            may run beside another over shared leaves stages its leaf
            gradients, and its caller adds them in a fixed order
            (:func:`repro.tensor.ops.parts`).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a seed requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = grad.reshape(self.data.shape)
        _keep_freed_heap()

        # Every node reachable through parents that require grad, in
        # recording order: a node is recorded after its parents, so the
        # reverse of that order is a topological order — and a fixed one,
        # whatever the graph's shape, so a recomputed `ops.checkpoint`
        # block sums its gradients in the plain tape's order.  An explicit
        # stack: recursion would overflow for deep (8-layer) IGNNs.
        seen = {id(self): self}
        stack: List[Tensor] = [self]
        while stack:
            for p in stack.pop()._parents:
                if p.requires_grad and id(p) not in seen:
                    seen[id(p)] = p
                    stack.append(p)
        topo = sorted(seen.values(), key=lambda node: node._seq)
        del seen  # `topo` is the pass's only hold on the nodes

        # Propagate in reverse topological order, consuming the graph:
        # each node leaves `topo` and hands back its closure and parents
        # as it is reached, so the arrays an op saved die once its last
        # consumer is differentiated.  Interior gradients are staged in
        # `grads` and dropped once consumed; only leaves keep their
        # accumulated gradient in `.grad`.
        grads = {id(self): grad}
        while topo:
            node = topo.pop()
            fn, parents = node._backward, node._parents
            if fn is not None:
                node._backward, node._parents = _consumed, ()
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if fn is None:
                if into is not None:
                    into[node] = node_grad
                    continue
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += node_grad
                continue
            parent_grads = fn(node_grad)
            del fn  # what only the closure saved dies here
            if len(parent_grads) != len(parents):
                raise RuntimeError(
                    f"op '{node._op}' returned {len(parent_grads)} gradients "
                    f"for {len(parents)} parents"
                )
            for parent, pgrad in zip(parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if pgrad.shape != parent.data.shape:
                    raise RuntimeError(
                        f"op '{node._op}' produced gradient of shape {pgrad.shape} "
                        f"for parent of shape {parent.data.shape}"
                    )
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad
            parent_grads = pgrad = None  # `grads` holds what is still needed

    # ------------------------------------------------------------------
    # operator sugar (implementations live in repro.tensor.ops)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.add(self, astensor(other))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.sub(self, astensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.sub(astensor(other), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.mul(self, astensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.div(self, astensor(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.div(astensor(other), self)

    def __neg__(self) -> "Tensor":
        from . import ops

        return ops.neg(self)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from . import ops

        return ops.matmul(self, astensor(other))

    def __pow__(self, exponent: float) -> "Tensor":
        from . import ops

        return ops.pow(self, float(exponent))

    def __getitem__(self, idx) -> "Tensor":
        from . import ops

        return ops.getitem(self, idx)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from . import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from . import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self) -> "Tensor":
        from . import ops

        return ops.transpose(self)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def relu(self) -> "Tensor":
        from . import ops

        return ops.relu(self)

    def tanh(self) -> "Tensor":
        from . import ops

        return ops.tanh(self)

    def sigmoid(self) -> "Tensor":
        from . import ops

        return ops.sigmoid(self)

    def exp(self) -> "Tensor":
        from . import ops

        return ops.exp(self)

    def log(self) -> "Tensor":
        from . import ops

        return ops.log(self)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)
