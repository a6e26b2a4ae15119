"""Mmap shard reading: audited open, LRU window, lazy graph handles.

Three layers:

* :class:`ShardReader` — maps one shard binary (``numpy.memmap``,
  read-only) and materialises :class:`~repro.graph.EventGraph` views
  out of it.  Node/edge payload arrays (``x``/``y``/``edge_labels``/
  ``particle_ids``) are zero-copy views into the mapping; only
  ``edge_index`` is reconstructed from the CSR ``indptr``/``indices``.
* :class:`EventStore` — the whole store.  Opening verifies the
  checksum chain (manifest seal → per-shard index hashes → optional
  full audit of every shard binary, like
  :func:`repro.io.open_archive`'s verify pass) and sweeps stale
  ``*.tmp`` files from an interrupted ingestion.  At read time it keeps
  an **LRU window of mapped shards under a hard resident-byte budget**:
  mapping a shard that would exceed the budget unmaps the
  least-recently-used ones first, so an epoch over a store many times
  the budget streams through a bounded working set.
* :class:`StoredGraph` — a lazy, stable handle per event.  Sizes and
  feature widths come from the index (no mapping needed — exactly what
  :meth:`repro.data.EpochPlan.build` consumes); any real array access
  materialises the graph through the store's LRU window.  Handles are
  the objects a streaming epoch plans over, so identity-based grouping
  (:func:`repro.sampling.group_batches`) works unchanged.

Telemetry: ``store.open`` / ``store.shard.map`` spans, ``store.shard.
{map,unmap}`` + ``store.cache.{hits,misses}`` counters, and
``store.resident_bytes`` / ``store.mapped_shards`` gauges via
:mod:`repro.obs`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..graph import EventGraph
from ..io.serialization import clean_stale_tmp
from ..obs import get_metrics, get_tracer
from .format import (
    MANIFEST_NAME,
    STORE_FORMAT,
    STORE_TMP_SUFFIX,
    StoreCorruptError,
    StoreError,
    check_spec_bounds,
    file_sha256,
    load_json,
    resolve_array,
    shard_bin_name,
    shard_index_name,
    verify_document,
)

__all__ = ["StoredGraph", "ShardReader", "StoreStats", "EventStore"]

#: Event-array names resolved into every materialised graph.
_REQUIRED_ARRAYS = ("indptr", "indices", "x", "y")


class StoredGraph:
    """Lazy handle to one event in a store.

    Carries the index metadata (sizes, feature widths, split, source,
    fingerprint) as plain attributes so epoch planning and model sizing
    never touch the disk; any other :class:`~repro.graph.EventGraph`
    attribute or method transparently materialises the graph through
    the store's LRU shard window.  One stable handle exists per event
    for the lifetime of the store, so identity-based batch grouping
    behaves exactly as with in-RAM graphs.
    """

    __slots__ = (
        "_store",
        "_pos",
        "event_id",
        "split",
        "source",
        "fingerprint",
        "num_nodes",
        "num_edges",
        "num_node_features",
        "num_edge_features",
        "has_edge_labels",
        "has_particle_ids",
    )

    def __init__(self, store: "EventStore", pos: int, doc: Dict) -> None:
        self._store = store
        self._pos = pos
        self.event_id = int(doc["event_id"])
        self.split = doc["split"]
        self.source = doc.get("source", "builder")
        self.fingerprint = doc.get("fingerprint")
        self.num_nodes = int(doc["num_nodes"])
        self.num_edges = int(doc["num_edges"])
        self.num_node_features = int(doc["num_node_features"])
        self.num_edge_features = int(doc["num_edge_features"])
        self.has_edge_labels = "edge_labels" in doc["arrays"]
        self.has_particle_ids = "particle_ids" in doc["arrays"]

    def materialize(self) -> EventGraph:
        """The event's graph, read through the store's shard window."""
        return self._store.graph(self._pos)

    @property
    def edge_labels(self) -> Optional[np.ndarray]:
        # presence is index metadata; `is None` checks stay disk-free
        return self.materialize().edge_labels if self.has_edge_labels else None

    @property
    def particle_ids(self) -> Optional[np.ndarray]:
        return self.materialize().particle_ids if self.has_particle_ids else None

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialize(), name)

    def __repr__(self) -> str:
        return (
            f"StoredGraph(id={self.event_id}, split={self.split!r}, "
            f"n={self.num_nodes}, m={self.num_edges})"
        )


class ShardReader:
    """One mapped shard: a read-only byte mapping plus its event table."""

    def __init__(self, directory: str, name: str, index: Dict) -> None:
        self.name = name
        self.index = index
        self.path = os.path.join(directory, shard_bin_name(name))
        self.mm: np.ndarray = np.memmap(self.path, dtype=np.uint8, mode="r")
        self.nbytes = int(self.mm.nbytes)
        self._graphs: Dict[int, EventGraph] = {}

    def graph(self, pos: int) -> EventGraph:
        """Materialise event ``pos`` of this shard (cached per shard)."""
        cached = self._graphs.get(pos)
        if cached is not None:
            return cached
        doc = self.index["events"][pos]
        label = f"shard {self.name} event {pos}"
        arrays = {
            key: resolve_array(self.mm, spec, f"{label} array {key!r}")
            for key, spec in doc["arrays"].items()
        }
        for key in _REQUIRED_ARRAYS:
            if key not in arrays:
                raise StoreCorruptError(f"{label}: missing array {key!r}")
        indptr = arrays["indptr"]
        n = int(doc["num_nodes"])
        # reconstruct COO sources from the CSR row pointer; the payload
        # arrays stay zero-copy views into the mapping
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        edge_index = np.empty((2, rows.shape[0]), dtype=np.int64)
        edge_index[0] = rows
        edge_index[1] = arrays["indices"]
        graph = EventGraph(
            edge_index=edge_index,
            x=arrays["x"],
            y=arrays["y"],
            edge_labels=arrays.get("edge_labels"),
            particle_ids=arrays.get("particle_ids"),
            event_id=int(doc["event_id"]),
        )
        self._graphs[pos] = graph
        return graph


@dataclass
class StoreStats:
    """Read-side counters for one :class:`EventStore` lifetime."""

    hits: int = 0  # materialised-graph cache hits
    misses: int = 0
    maps: int = 0  # shard map operations
    unmaps: int = 0  # LRU evictions
    peak_resident_bytes: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class EventStore:
    """Audited, budget-bounded random access to a store directory.

    Parameters
    ----------
    directory:
        A store written by :class:`~repro.store.writer.StoreWriter`.
    budget_bytes:
        Hard ceiling on the bytes of simultaneously mapped shards
        (``None`` = unbounded).  Must admit the largest single shard;
        epochs over stores larger than the budget stream through an LRU
        window of this size.
    audit:
        Re-hash every shard binary against the manifest on open (like
        ``open_archive(verify=True)``).  Index files are always
        verified — they are small; shard audit is the knob because it
        reads every byte of the store once.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` whose
        :meth:`~repro.faults.FaultPlan.before_shard_map` hook runs
        immediately before every shard mapping — scheduled
        :class:`~repro.faults.DiskFault` entries physically corrupt the
        shard file, and the map-time size check below turns the damage
        into a typed :class:`StoreCorruptError` (chaos harness for the
        scenario engine; see docs/scenarios.md).
    verify_on_map:
        Re-hash a shard binary against its manifest checksum every time
        it is (re)mapped, not just at open.  Catches *silent* corruption
        that appears after open — a flipped bit does not change the file
        size, so only the hash sees it.  Off by default (it re-reads the
        shard's bytes on every map); chaos/scenario runs turn it on.
    """

    def __init__(
        self,
        directory: str,
        budget_bytes: Optional[int] = None,
        audit: bool = True,
        fault_plan=None,
        verify_on_map: bool = False,
    ) -> None:
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.isdir(directory) or not os.path.exists(manifest_path):
            raise StoreError(f"no event store at {directory!r}")
        self.directory = directory
        # interrupted-ingestion leftovers are never valid shards
        self.swept = clean_stale_tmp(directory, suffixes=(STORE_TMP_SUFFIX,))
        with get_tracer().span(
            "store.open", category="store", path=directory, audit=audit
        ):
            manifest = load_json(manifest_path, "store manifest")
            fmt = manifest.get("format")
            if fmt != STORE_FORMAT:
                raise StoreError(
                    f"unsupported store format {fmt!r} at {directory!r} "
                    f"(this reader speaks {STORE_FORMAT!r})"
                )
            verify_document(manifest, f"store manifest {manifest_path!r}")
            self.manifest = manifest
            self._indexes: List[Dict] = []
            self._events: List[tuple] = []  # (shard_idx, pos_in_shard, doc)
            for entry in manifest["shards"]:
                self._audit_shard(entry, audit)
        if budget_bytes is not None:
            largest = max(
                (e["bytes"] for e in manifest["shards"]), default=0
            )
            if budget_bytes < largest:
                raise ValueError(
                    f"budget_bytes={budget_bytes} cannot hold the largest "
                    f"shard ({largest} bytes); raise the budget or re-ingest "
                    f"with a smaller max_shard_bytes"
                )
        self.budget_bytes = budget_bytes
        self.fault_plan = fault_plan
        self.verify_on_map = verify_on_map
        self.stats = StoreStats()
        self._mapped: "OrderedDict[int, ShardReader]" = OrderedDict()
        self._resident = 0
        self._lock = threading.Lock()
        self._handles = [
            StoredGraph(self, pos, doc) for pos, (_, _, doc) in enumerate(self._events)
        ]

    def _audit_shard(self, entry: Dict, audit: bool) -> None:
        name = entry["name"]
        bin_path = os.path.join(self.directory, shard_bin_name(name))
        index_path = os.path.join(self.directory, shard_index_name(name))
        if not os.path.exists(bin_path):
            raise StoreCorruptError(f"shard binary missing: {bin_path}")
        if not os.path.exists(index_path):
            raise StoreCorruptError(f"shard index missing: {index_path}")
        if file_sha256(index_path) != entry["index_sha256"]:
            raise StoreCorruptError(
                f"shard index {index_path!r} does not match the manifest "
                f"(index_sha256 mismatch)"
            )
        index = load_json(index_path, f"shard index {name}")
        verify_document(index, f"shard index {index_path!r}")
        if index.get("shard") != name or len(index["events"]) != entry["events"]:
            raise StoreCorruptError(
                f"shard index {index_path!r} disagrees with the manifest entry"
            )
        size = os.path.getsize(bin_path)
        if size != entry["bytes"]:
            raise StoreCorruptError(
                f"shard binary {bin_path!r} is {size} bytes; manifest says "
                f"{entry['bytes']} (truncated or overwritten)"
            )
        if audit and file_sha256(bin_path) != entry["sha256"]:
            raise StoreCorruptError(
                f"shard binary {bin_path!r} fails its manifest checksum "
                f"(bit-flip or partial write)"
            )
        shard_idx = len(self._indexes)
        for pos, doc in enumerate(index["events"]):
            for key, spec in doc["arrays"].items():
                check_spec_bounds(
                    spec, size, f"shard {name} event {pos} array {key!r}"
                )
            self._events.append((shard_idx, pos, doc))
        self._indexes.append(index)

    # ------------------------------------------------------------------
    # metadata access (never maps a shard)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._handles)

    def __getitem__(self, pos: int) -> StoredGraph:
        return self._handles[pos]

    def __iter__(self) -> Iterator[StoredGraph]:
        return iter(self._handles)

    @property
    def meta(self) -> Dict:
        return self.manifest.get("meta", {})

    @property
    def resident_bytes(self) -> int:
        return self._resident

    @property
    def mapped_shards(self) -> int:
        return len(self._mapped)

    def handles(self, split: Optional[str] = None) -> List[StoredGraph]:
        """Lazy handles, optionally restricted to one split."""
        if split is None:
            return list(self._handles)
        return [h for h in self._handles if h.split == split]

    def fingerprints(self) -> Dict[str, StoredGraph]:
        """Event-fingerprint → handle map (events that recorded one)."""
        return {h.fingerprint: h for h in self._handles if h.fingerprint}

    def describe(self) -> Dict:
        """Summary dict for CLI/diagnostics."""
        shards = self.manifest["shards"]
        return {
            "format": self.manifest["format"],
            "directory": self.directory,
            "events": len(self._handles),
            "shards": len(shards),
            "bytes": sum(s["bytes"] for s in shards),
            "splits": dict(self.manifest.get("splits", {})),
            "meta": dict(self.meta),
            "budget_bytes": self.budget_bytes,
        }

    def verify(self) -> None:
        """Re-audit every shard binary against the manifest (full read)."""
        for entry in self.manifest["shards"]:
            bin_path = os.path.join(self.directory, shard_bin_name(entry["name"]))
            if file_sha256(bin_path) != entry["sha256"]:
                raise StoreCorruptError(
                    f"shard binary {bin_path!r} fails its manifest checksum"
                )

    # ------------------------------------------------------------------
    # budgeted reads
    # ------------------------------------------------------------------
    def graph(self, pos: int) -> EventGraph:
        """Materialise event ``pos``, mapping/evicting shards as needed."""
        shard_idx, shard_pos, _ = self._events[pos]
        with self._lock:
            reader = self._ensure_mapped(shard_idx)
            cached = shard_pos in reader._graphs
            graph = reader.graph(shard_pos)
            self._count_access(cached)
            return graph

    def load_split(self, split: Optional[str] = None) -> List[EventGraph]:
        """Fully-resident deep copies (the in-RAM comparison path).

        Arrays are copied out of the mappings, so the returned graphs
        stay valid after shards are evicted or the store is closed —
        and bit-compare equal to what streaming materialises.
        """
        out = []
        for handle in self.handles(split):
            g = handle.materialize()
            out.append(
                EventGraph(
                    edge_index=np.array(g.edge_index),
                    x=np.array(g.x),
                    y=np.array(g.y),
                    edge_labels=None if g.edge_labels is None else np.array(g.edge_labels),
                    particle_ids=None
                    if g.particle_ids is None
                    else np.array(g.particle_ids),
                    event_id=g.event_id,
                )
            )
        return out

    def close(self) -> None:
        """Drop every mapping (views handed out keep their shard alive)."""
        with self._lock:
            self._mapped.clear()
            self._resident = 0
            self._set_gauges()

    def __enter__(self) -> "EventStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _ensure_mapped(self, shard_idx: int) -> ShardReader:
        reader = self._mapped.get(shard_idx)
        if reader is not None:
            self._mapped.move_to_end(shard_idx)
            return reader
        entry = self.manifest["shards"][shard_idx]
        nbytes = int(entry["bytes"])
        if self.budget_bytes is not None:
            while self._mapped and self._resident + nbytes > self.budget_bytes:
                _, evicted = self._mapped.popitem(last=False)
                self._resident -= evicted.nbytes
                self.stats.unmaps += 1
                get_metrics().counter("store.shard.unmap").add(1)
        bin_path = os.path.join(self.directory, shard_bin_name(entry["name"]))
        if self.fault_plan is not None:
            self.fault_plan.before_shard_map(bin_path)
        # cheap map-time integrity check: a shard that changed size since
        # the manifest was sealed (torn write, truncation) must never be
        # mapped — resolve_array would catch an out-of-bounds spec later,
        # but failing here attributes the damage to the shard, not a batch
        size = os.path.getsize(bin_path)

        def corrupt(message: str) -> StoreCorruptError:
            get_metrics().counter("store.shard.corrupt").add(1)
            get_tracer().event(
                "store.shard.corrupt",
                category="store",
                shard=entry["name"],
                expected_bytes=nbytes,
                actual_bytes=size,
            )
            return StoreCorruptError(f"shard binary {bin_path!r} {message}")

        if size != nbytes:
            raise corrupt(
                f"is {size} bytes at map time; "
                f"manifest says {nbytes} (truncated or overwritten)"
            )
        if self.verify_on_map and file_sha256(bin_path) != entry["sha256"]:
            raise corrupt(
                "fails its manifest checksum at map time (bit-flip after open)"
            )
        with get_tracer().span(
            "store.shard.map", category="store", shard=entry["name"], bytes=nbytes
        ):
            reader = ShardReader(
                self.directory, entry["name"], self._indexes[shard_idx]
            )
        self._mapped[shard_idx] = reader
        self._resident += nbytes
        self.stats.maps += 1
        self.stats.peak_resident_bytes = max(
            self.stats.peak_resident_bytes, self._resident
        )
        get_metrics().counter("store.shard.map").add(1)
        self._set_gauges()
        return reader

    def _count_access(self, cached: bool) -> None:
        if cached:
            self.stats.hits += 1
            get_metrics().counter("store.cache.hits").add(1)
        else:
            self.stats.misses += 1
            get_metrics().counter("store.cache.misses").add(1)

    def _set_gauges(self) -> None:
        get_metrics().gauge("store.resident_bytes").set(self._resident)
        get_metrics().gauge("store.mapped_shards").set(len(self._mapped))
