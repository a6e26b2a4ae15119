"""Stage cache: content fingerprinting and bounded LRU behaviour."""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.serve import StageCache, event_fingerprint
from repro.serve.cache import CachedStages


def _entry() -> CachedStages:
    return CachedStages(
        graph=None, filtered=None, filter_keep=np.zeros(0, bool), filter_scores=np.zeros(0)
    )


class TestEventFingerprint:
    def test_same_hits_same_fingerprint(self, serve_events):
        event = serve_events[0]
        assert event_fingerprint(event) == event_fingerprint(event)

    def test_different_events_differ(self, serve_events):
        prints = {event_fingerprint(e) for e in serve_events}
        assert len(prints) == len(serve_events)

    def test_event_id_is_ignored(self, serve_events):
        event = serve_events[0]
        renamed = dataclasses.replace(event, event_id=999)
        assert event_fingerprint(renamed) == event_fingerprint(event)

    def test_moving_one_hit_changes_fingerprint(self, serve_events):
        event = serve_events[0]
        positions = event.positions.copy()
        positions[0, 0] += 1e-6
        moved = dataclasses.replace(event, positions=positions)
        assert event_fingerprint(moved) != event_fingerprint(event)


class TestStageCache:
    def test_get_put_round_trip(self):
        cache = StageCache(capacity=4)
        entry = _entry()
        assert cache.get("k") is None
        cache.put("k", entry)
        assert cache.get("k") is entry
        assert cache.stats() == (1, 1)

    def test_lru_eviction_order(self):
        cache = StageCache(capacity=2)
        a, b, c = _entry(), _entry(), _entry()
        cache.put("a", a)
        cache.put("b", b)
        cache.get("a")  # refresh: b is now least recently used
        cache.put("c", c)
        assert cache.get("b") is None
        assert cache.get("a") is a
        assert cache.get("c") is c
        assert len(cache) == 2

    def test_put_refreshes_existing_key(self):
        cache = StageCache(capacity=2)
        first, second = _entry(), _entry()
        cache.put("k", first)
        cache.put("k", second)
        assert len(cache) == 1
        assert cache.get("k") is second

    def test_entry_is_filled_by_putting_its_completed_copy(self):
        cache = StageCache(capacity=2)
        upstream = _entry()
        assert upstream.tracks is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            upstream.tracks = ()
        cache.put("k", upstream)
        complete = dataclasses.replace(upstream, tracks=(np.arange(3),))
        cache.put("k", complete)
        assert len(cache) == 1
        assert cache.get("k") is complete
        assert complete.filtered is upstream.filtered

    def test_eviction_drops_tracks_with_their_entry(self):
        cache = StageCache(capacity=1)
        cache.put("a", dataclasses.replace(_entry(), tracks=(np.arange(3),)))
        cache.put("b", _entry())
        assert cache.get("a") is None  # no second table keeps a's tracks
        assert cache.get("b").tracks is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            StageCache(capacity=0)

    def test_concurrent_get_put_keeps_capacity_and_counts(self):
        """Eight threads race ``get`` / ``put`` over more keys than fit:
        no observer ever sees more than ``capacity`` entries, a hit
        returns the entry put under its key, and every ``get`` is counted
        exactly once as a hit or a miss."""
        cache = StageCache(capacity=4)
        entries = {f"k{i}": _entry() for i in range(12)}
        gets, sizes, errors = [], [], []

        def worker(seed):
            rng = np.random.default_rng(seed)
            n_gets, biggest = 0, 0
            try:
                for _ in range(400):
                    key = f"k{rng.integers(len(entries))}"
                    if rng.random() < 0.5:
                        n_gets += 1
                        found = cache.get(key)
                        assert found is None or found is entries[key]
                    else:
                        cache.put(key, entries[key])
                    biggest = max(biggest, len(cache))
            except Exception as exc:  # surfaced below, on the main thread
                errors.append(exc)
            gets.append(n_gets)
            sizes.append(biggest)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert max(sizes) <= cache.capacity
        assert len(cache) == cache.capacity
        assert sum(cache.stats()) == sum(gets) > 0
