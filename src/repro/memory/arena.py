"""Buffer-pool arena for per-step scratch and gradient arrays.

Every training step of the IGNN allocates the same set of large arrays:
the ``(m, f)`` message buffers and the ``(n, f)`` scatter outputs of the
graph ops' backward.  NumPy hands each of these back to the OS allocator
as soon as the autograd engine drops them.

:class:`BufferArena` can recycle such buffers: :meth:`BufferArena.take`
issues one and :meth:`BufferArena.reclaim` pools it again.  Nothing in
the library calls it: the kernels in :mod:`repro.tensor.kernels` and
``Tensor.backward`` allocate with plain numpy, so the process-global
arena stays empty.  The module is kept for the ledger's
``memory.arena_*`` rows, which read :func:`default_arena`, and goes
when they do.  Safety rules:

* only arrays issued by :meth:`take` are ever pooled — ``reclaim`` of a
  foreign array (a view, a closure pass-through, user data) is a no-op;
* identity is verified with a weak reference, so an ``id()`` recycled by
  the Python allocator can never alias a pooled buffer;
* a buffer is reclaimed at most once (the registry entry is popped).

The arena is process-global (``default_arena``) and lock-protected.
``set_arena_enabled(False)`` turns every ``take`` into a plain
allocation.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ArenaStats",
    "BufferArena",
    "default_arena",
    "arena_enabled",
    "set_arena_enabled",
]

#: Default cap on pooled (idle) bytes; beyond it, reclaimed buffers are
#: dropped to the normal allocator instead of being cached.
DEFAULT_MAX_POOLED_BYTES = 256 * 1024 * 1024


class ArenaStats:
    """Counters of one :class:`BufferArena` (all monotonic)."""

    __slots__ = ("hits", "misses", "reclaimed", "rejected", "bytes_reused")

    def __init__(self) -> None:
        self.hits = 0          # take() served from the pool
        self.misses = 0        # take() fell through to np.empty
        self.reclaimed = 0     # buffers returned to the pool
        self.rejected = 0      # reclaim() of a foreign/duplicate array
        self.bytes_reused = 0  # total bytes served from the pool

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaStats({self.to_dict()})"


_Key = Tuple[Tuple[int, ...], str]


class BufferArena:
    """Size-class pool of ndarray scratch buffers.

    Parameters
    ----------
    max_pooled_bytes:
        Upper bound on the *idle* bytes kept in the pool; buffers
        reclaimed beyond it are dropped (garbage-collected normally).
    """

    def __init__(self, max_pooled_bytes: int = DEFAULT_MAX_POOLED_BYTES) -> None:
        if max_pooled_bytes < 0:
            raise ValueError("max_pooled_bytes must be >= 0")
        self.max_pooled_bytes = max_pooled_bytes
        self.stats = ArenaStats()
        self._pools: Dict[_Key, List[np.ndarray]] = {}
        self._registry: Dict[int, weakref.ref] = {}
        self._pooled_bytes = 0
        self._lock = threading.Lock()
        self._sweep_at = 1024  # amortised purge of dead registry entries

    # ------------------------------------------------------------------
    @staticmethod
    def _key(shape: Tuple[int, ...], dtype) -> _Key:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def take(self, shape, dtype=np.float32, zero: bool = False) -> np.ndarray:
        """Return a C-contiguous array of ``shape``/``dtype``.

        The array is *registered*: handing it back via :meth:`reclaim`
        (or :meth:`give`) returns it to the pool for the next ``take``.
        With ``zero=True`` the buffer is zero-filled (pooled buffers
        hold stale data from their previous life).
        """
        if not arena_enabled():
            return (np.zeros if zero else np.empty)(shape, dtype=dtype)
        if np.isscalar(shape):
            shape = (int(shape),)
        key = self._key(tuple(shape), dtype)
        with self._lock:
            bucket = self._pools.get(key)
            if bucket:
                arr = bucket.pop()
                self._pooled_bytes -= arr.nbytes
                self.stats.hits += 1
                self.stats.bytes_reused += arr.nbytes
            else:
                arr = np.empty(key[0], dtype=np.dtype(key[1]))
                self.stats.misses += 1
            self._registry[id(arr)] = weakref.ref(arr)
            if len(self._registry) >= self._sweep_at:
                # Buffers that died unreclaimed (exceptions, one-shot use)
                # leave dead weakrefs behind; purge them occasionally so
                # the registry stays bounded.
                self._registry = {
                    k: r for k, r in self._registry.items() if r() is not None
                }
                self._sweep_at = max(1024, 2 * len(self._registry))
        if zero:
            arr.fill(0)
        return arr

    def zeros(self, shape, dtype=np.float32) -> np.ndarray:
        """Shorthand for ``take(shape, dtype, zero=True)``."""
        return self.take(shape, dtype, zero=True)

    def is_issued(self, arr) -> bool:
        """Whether ``arr`` is a live buffer issued by :meth:`take`."""
        if not isinstance(arr, np.ndarray):
            return False
        with self._lock:
            ref = self._registry.get(id(arr))
            return ref is not None and ref() is arr

    def reclaim(self, arr: Optional[np.ndarray]) -> bool:
        """Return a dead arena-issued buffer to the pool.

        A no-op (returning False) for anything the arena did not issue:
        foreign arrays, views, already-reclaimed buffers.  Callers may
        therefore offer *any* dead array without aliasing risk.
        """
        if arr is None or not isinstance(arr, np.ndarray):
            return False
        with self._lock:
            ref = self._registry.get(id(arr))
            if ref is None or ref() is not arr:
                self.stats.rejected += 1
                return False
            del self._registry[id(arr)]
            if self._pooled_bytes + arr.nbytes > self.max_pooled_bytes:
                self.stats.rejected += 1
                return False
            key = self._key(arr.shape, arr.dtype)
            self._pools.setdefault(key, []).append(arr)
            self._pooled_bytes += arr.nbytes
            self.stats.reclaimed += 1
            return True

    # `give` is the explicit-scratch spelling of the same operation: a
    # caller take()s a buffer, uses it, and give()s it back.
    give = reclaim

    # ------------------------------------------------------------------
    @property
    def pooled_bytes(self) -> int:
        """Idle bytes currently cached in the pool."""
        with self._lock:
            return self._pooled_bytes

    def clear(self) -> None:
        """Drop every pooled buffer (registered in-flight buffers stay)."""
        with self._lock:
            self._pools.clear()
            self._pooled_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferArena(pooled_bytes={self.pooled_bytes}, "
            f"stats={self.stats.to_dict()})"
        )


# ----------------------------------------------------------------------
# process-global arena
# ----------------------------------------------------------------------
_DEFAULT_ARENA = BufferArena()
_ENABLED = True


def default_arena() -> BufferArena:
    """The process-global arena (no library code allocates through it)."""
    return _DEFAULT_ARENA


def arena_enabled() -> bool:
    """Whether pooling is active (``take`` recycles, ``reclaim`` pools)."""
    return _ENABLED


def set_arena_enabled(enabled: bool) -> bool:
    """Toggle pooling globally; returns the previous setting.

    Used by the parity suites to compare pooled vs. plain allocation,
    and available as a kill switch if an embedding application manages
    its own memory.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous
