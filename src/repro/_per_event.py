"""The process's one thread pool (``cores - 1`` helpers, at least one)
and its two uses: an order-preserving per-event map, in which the caller
and the helpers run a plain loop's calls, whose numpy, BLAS and
``cKDTree`` work releases the GIL (the bits are the loop's; pin BLAS),
and :func:`submit`, which the sampling prefetch runs its steps through.
The map comes in two halves, :func:`dispatch` and the call it returns,
so the trainer can run its rank steps as lanes and collect them where
they meet, in the all-reduce."""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Iterable, Iterator

from .obs import get_tracer
from .tensor import default_dtype, get_default_dtype

_HELPERS = len(os.sched_getaffinity(0)) - 1  # tests patch it; not a knob
_state = threading.local()  # .inside: a pool thread, or a caller running the map's items


def _helper() -> None:  # each pool thread, as it starts
    _state.inside = True


def _new_pool() -> None:  # at import, and in a forked child: none of the parent's threads
    global _pool
    _pool = ThreadPoolExecutor(max(_HELPERS, 1), "repro-event", initializer=_helper)


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
    thread or from inside an item is a plain loop on the caller."""
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
    _state.inside = True
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
