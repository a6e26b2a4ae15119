"""The process's one thread pool (``cores - 1`` helpers, at least one)
and its two uses: an order-preserving per-event map, in which the caller
and the helpers run a plain loop's calls, whose numpy, BLAS and
``cKDTree`` work releases the GIL (the bits are the loop's; pin BLAS),
and :func:`submit`, which the sampling prefetch runs its steps through.
The map comes in two halves, :func:`dispatch` and the call it returns,
so the trainer can run its rank steps as lanes and collect them where
they meet, in the all-reduce.

A map nested in a map's item runs as a plain loop on that item's thread
when the outer map claimed a helper (a helper waiting on the pool it
occupies could deadlock it).  A one-item map claims none, so a map
nested in it may still use the idle helpers: at one rank, the rank
step's forward and backward run the batch's two component parts as
lanes (:meth:`repro.models.InteractionGNN.forward`)."""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Iterable, Iterator

from .obs import get_tracer
from .tensor import default_dtype, get_default_dtype

_HELPERS = len(os.sched_getaffinity(0)) - 1  # tests patch it; not a knob
_state = threading.local()  # .inside: a pool thread, or a caller running a map's items beside a helper


def _helper() -> None:  # each pool thread, as it starts
    _state.inside = True


def _one_heap() -> None:
    """Make every thread allocate from the main heap (glibc's
    ``M_ARENA_MAX`` = 1; a no-op without ``mallopt``).  By default a
    thread's first allocation gives it an arena of its own, which keeps
    what that thread freed: on ``train_ex3_true`` the helper running a
    one-rank step's second component lane held ≈ 28 MB of peak RSS beyond
    the main heap (EXPERIMENTS.md, "Component lanes at P = 1").  Must run
    before a helper first allocates, so it runs at import; numpy
    allocates its arrays holding the GIL, so the threads hardly meet on
    the heap's lock."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-8, 1)  # M_ARENA_MAX


def _new_pool() -> None:  # at import, and in a forked child: none of the parent's threads
    global _pool
    _pool = ThreadPoolExecutor(max(_HELPERS, 1), "repro-event", initializer=_helper)


_one_heap()
_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def submit(fn: Callable, *args) -> Future:
    """``fn(*args)`` on a helper, carrying none of the caller's dtype or span."""
    return _pool.submit(fn, *args)


def settle(futures: Iterable[Future]) -> None:
    """Cancel the futures not started, wait for the running ones — unless
    on a pool thread or in an item, where one may be this thread's own."""
    running = [f for f in futures if not f.cancel()]
    if not getattr(_state, "inside", False):
        wait(running)


def dispatch(fn: Callable, *iterables) -> Callable[[], Iterator]:
    """The first half of :func:`per_event`: ``fn(*args)`` for each ``args``
    of ``zip(*iterables)``, the helpers claiming items under the caller's
    default dtype and open tracer span while the caller runs every item
    none of them has claimed.  Returns the second half, which waits for
    the helpers and yields the results in order; an item that raised
    re-raises at its position.  One item, one core, or a call from a pool
    thread or from inside the items of a map that claimed a helper is a
    plain loop on the caller.  A one-item map claims no helper and leaves
    its caller unmarked, so a map nested in its item may claim the
    helpers it left idle."""
    items = list(zip(*iterables))
    nested = getattr(_state, "inside", False)
    helpers = 0 if nested else min(_HELPERS, len(items) - 1)
    todo, done = iter(enumerate(items)), [None] * len(items)
    dtype, carried = get_default_dtype(), get_tracer().carry(fn)

    def work() -> None:
        with default_dtype(dtype):
            for i, args in todo:  # one shared iterator: each item is claimed once
                try:
                    done[i] = (carried(*args), None)
                except BaseException as exc:
                    done[i] = (None, exc)

    futures = [submit(work) for _ in range(helpers)]
    _state.inside = nested or helpers > 0
    try:
        work()
    finally:
        _state.inside = nested

    def collect() -> Iterator:
        settle(futures)  # a helper that never started: not waited for
        for result, error in done:
            if error is not None:
                raise error
            yield result

    return collect


def per_event(fn: Callable, *iterables) -> Iterator:
    """``fn(*args)`` for each ``args`` of ``zip(*iterables)``, in order, on
    every core: :func:`dispatch` and the half it returns, back to back."""
    yield from dispatch(fn, *iterables)()
