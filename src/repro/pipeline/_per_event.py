"""One order-preserving per-event map over the process's cores: the caller
and ``cores - 1`` helpers run a plain loop's calls, whose numpy, BLAS and
``cKDTree`` work releases the GIL; the bits are the loop's (pin BLAS)."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator

from ..obs import get_tracer
from ..tensor import default_dtype, get_default_dtype

_HELPERS = len(os.sched_getaffinity(0)) - 1  # tests patch it; not a knob
_state = threading.local()  # .inside: this thread is running the map's items


def _new_pool() -> None:  # at import, and in a forked child: none of the parent's threads
    global _pool
    _pool = ThreadPoolExecutor(max(_HELPERS, 1), "repro-event")  # threads start on first use


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def per_event(fn: Callable, *iterables) -> Iterator:
    """``fn(*args)`` for each ``args`` of ``zip(*iterables)``, in order; an
    item that raised re-raises at its position.  One item, one core, or a
    call from inside an item is a plain loop; otherwise the helpers run
    under the caller's default dtype and open tracer span."""
    items = list(zip(*iterables))
    helpers = min(_HELPERS, len(items) - 1)
    if helpers < 1 or getattr(_state, "inside", False):
        yield from (fn(*args) for args in items)
        return
    todo, done = iter(enumerate(items)), [None] * len(items)
    dtype, carried = get_default_dtype(), get_tracer().carry(fn)

    def work(inside_after: bool) -> None:
        _state.inside = True
        with default_dtype(dtype):
            for i, args in todo:  # one shared iterator: each item is claimed once
                try:
                    done[i] = (carried(*args), None)
                except BaseException as exc:
                    done[i] = (None, exc)
        _state.inside = inside_after

    futures = [_pool.submit(work, True) for _ in range(helpers)]
    work(False)
    wait([f for f in futures if not f.cancel()])  # a helper that never started: not waited for
    for result, error in done:
        if error is not None:
            raise error
        yield result
