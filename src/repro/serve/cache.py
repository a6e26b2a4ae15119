"""Keyed stage cache: event-content hash → the event's answer so far.

Production tracking serves many *replayed* events — calibration reruns,
trigger-menu sweeps, A/B comparisons of downstream settings — where the
hits are byte-identical to a request already answered.  Every stage is a
pure function of the hit content and of weights the engine fixes for its
lifetime, so one record per content fingerprint holds the chain at
whatever depth it has been computed, and one lookup has three outcomes:
**absent** → construction, filter, GNN, tracks; **upstream only** (a
degraded batch, or a GNN failure, created the entry) → GNN and tracks,
which fill it; **complete** → the tracks: no forward, no pruning, no
connected components.  An engine is the unit of invalidation: nothing a
live engine can change (weights, thresholds, track builder, precision)
enters the key, so new settings mean a new engine and an empty cache.

The fingerprint hashes the raw hit arrays (positions, layer ids), NOT
``event_id`` — two events with the same hits share an entry whatever
they are called, and an event whose hits changed never matches a stale
entry.

An entry (``CachedStages``) is the record
:meth:`repro.pipeline.ExaTrkXPipeline.upstream_many` returns per event
plus, once a full-quality pass has produced them, the final tracks.

The cache is a bounded LRU, safe for concurrent access from the serving
engine's lanes; entries are frozen, graphs and tracks stored in them are
treated as immutable by every consumer (pruning produces new graphs via
``edge_mask_subgraph``; the engine marks track arrays read-only), and an
entry is filled by ``put``-ting its completed copy, so eviction drops
the tracks with their entry.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..detector import Event
from ..pipeline import UpstreamStages

__all__ = ["CachedStages", "StageCache", "event_fingerprint"]


def event_fingerprint(event: Event) -> str:
    """Content hash of one event's hits (positions + layer ids).

    The arrays are hashed in a fixed byte order, so the fingerprint is
    stable across processes and runs; particle ids and truth ordering
    are deliberately excluded — they do not influence reconstruction.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(event.positions, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(event.layer_ids, dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class CachedStages(UpstreamStages):
    """One fingerprint's answer so far: upstream outputs and, once built, the tracks.

    ``tracks`` stays ``None`` until a full-quality pass has produced them."""

    tracks: Optional[Tuple[np.ndarray, ...]] = None


class StageCache:
    """Bounded LRU over :class:`CachedStages`, keyed by event fingerprint.

    ``capacity`` is the maximum number of events retained; the least
    recently *used* entry is evicted first.  ``hits``/``misses`` count
    lookups over the cache lifetime (the serving engine additionally
    exports them as ``serve.cache.*`` counters).
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CachedStages]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:  # never between a put's insert and its eviction
            return len(self._entries)

    def get(self, key: str) -> Optional[CachedStages]:
        """Look up a fingerprint; refreshes recency on hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, entry: CachedStages) -> None:
        """Insert (or refresh) an entry, evicting LRU entries over capacity."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self) -> Tuple[int, int]:
        """Return ``(hits, misses)``."""
        return self.hits, self.misses
