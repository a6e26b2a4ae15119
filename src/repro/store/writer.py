"""Validated ingestion: events → size-bounded, checksummed CSR shards.

The write path has two layers:

* :class:`StoreWriter` — the mechanical compactor.  It buffers
  canonicalised event arrays until the configured shard size is reached,
  then writes the shard binary and its index atomically (temp file +
  ``os.replace`` via :func:`repro.io.atomic_write_bytes`) and finally
  seals the store with a checksummed ``manifest.json``.  A crash at any
  point leaves either a readable old store or stray ``*.tmp`` files that
  the next writer/reader sweeps with :func:`repro.io.clean_stale_tmp` —
  never a half-written shard under a valid name.
* ``ingest_*`` helpers — the guarded front doors.  Every event or graph
  passes through :mod:`repro.guard` first; offenders land in the
  existing :class:`~repro.guard.Quarantine` (with optional JSONL log)
  and **never reach a shard**, so a store is valid by construction.

Edges are stably sorted by source row before writing (see
:mod:`repro.store.format`), making the on-disk CSR order canonical: the
graphs a reader materialises are bit-identical across processes and
runs, which the streamed-vs-in-RAM training parity tests pin.
"""

from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import EventGraph
from ..guard import EventValidator, GraphValidator, Quarantine, QuarantineLog
from ..io.serialization import atomic_write_bytes, clean_stale_tmp
from ..obs import get_metrics, get_tracer
from .format import (
    ARRAY_ALIGN,
    MANIFEST_NAME,
    STORE_FORMAT,
    STORE_TMP_SUFFIX,
    StoreError,
    array_spec,
    canonical_json,
    seal_document,
    shard_bin_name,
    shard_index_name,
)

__all__ = [
    "DEFAULT_SHARD_BYTES",
    "StoreWriter",
    "IngestReport",
    "ingest_graphs",
    "ingest_simulated",
    "ingest_construction",
]

#: Default shard size bound; small enough that an LRU window of a few
#: shards stays modest, large enough to amortise per-shard overhead.
DEFAULT_SHARD_BYTES = 16 << 20


def _csr_arrays(graph: EventGraph) -> Dict[str, np.ndarray]:
    """Canonical on-disk arrays for one graph (edges CSR-sorted)."""
    n, m = graph.num_nodes, graph.num_edges
    rows = np.asarray(graph.rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    if m:
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    arrays = {
        "indptr": indptr,
        "indices": np.ascontiguousarray(graph.cols[order], dtype=np.int64),
        "x": np.ascontiguousarray(graph.x, dtype=np.float32),
        "y": np.ascontiguousarray(graph.y[order], dtype=np.float32),
    }
    if graph.edge_labels is not None:
        arrays["edge_labels"] = np.ascontiguousarray(
            graph.edge_labels[order], dtype=np.int8
        )
    if graph.particle_ids is not None:
        arrays["particle_ids"] = np.ascontiguousarray(
            graph.particle_ids, dtype=np.int64
        )
    return arrays


def _aligned(nbytes: int) -> int:
    return nbytes + (-nbytes) % ARRAY_ALIGN


class StoreWriter:
    """Compact event graphs into size-bounded shards, atomically.

    Parameters
    ----------
    directory:
        Store root (created if missing).  A pre-existing store is only
        replaced with ``overwrite=True``; stale ``*.tmp`` files from an
        interrupted earlier ingestion are swept on startup.
    max_shard_bytes:
        Flush the pending shard once its payload reaches this size.  One
        event never spans shards, so a single event larger than the
        bound gets a shard of its own.
    meta:
        Free-form JSON-serialisable mapping recorded in the manifest
        (dataset name, graph provenance, pipeline hash, …).

    Use as a context manager or call :meth:`close` — the manifest is
    only written on close, so readers never observe a store that is
    still growing.
    """

    def __init__(
        self,
        directory: str,
        max_shard_bytes: int = DEFAULT_SHARD_BYTES,
        meta: Optional[Dict] = None,
        overwrite: bool = False,
    ) -> None:
        if max_shard_bytes <= 0:
            raise ValueError("max_shard_bytes must be positive")
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            if not overwrite:
                raise StoreError(
                    f"store already exists at {directory!r} (pass overwrite=True)"
                )
            # drop the old store completely so a smaller re-ingest can't
            # leave orphaned shards beside the new manifest
            for name in os.listdir(directory):
                if name.endswith((".bin", ".index.json")) or name == MANIFEST_NAME:
                    os.unlink(os.path.join(directory, name))
        self.swept = clean_stale_tmp(directory, suffixes=(STORE_TMP_SUFFIX,))
        self.max_shard_bytes = int(max_shard_bytes)
        self.meta = dict(meta or {})
        self._pending: List[Tuple[Dict, Dict[str, np.ndarray]]] = []
        self._pending_bytes = 0
        self._shards: List[Dict] = []
        self._splits: Dict[str, int] = {}
        self._closed = False
        self._manifest: Optional[Dict] = None

    # ------------------------------------------------------------------
    def add_graph(
        self,
        graph: EventGraph,
        split: str = "train",
        fingerprint: Optional[str] = None,
        source: str = "builder",
    ) -> None:
        """Queue one graph; flushes a shard when the size bound is hit.

        ``fingerprint`` (see :func:`repro.serve.cache.event_fingerprint`)
        keys the graph to its originating event so the serving tier can
        hydrate replayed requests from the store; ``source`` records how
        the graph was built (``"builder"`` for geometric candidate
        graphs, ``"construction"`` for fitted-pipeline stage output).
        """
        if self._closed:
            raise StoreError("StoreWriter is closed")
        arrays = _csr_arrays(graph)
        doc = {
            "event_id": int(graph.event_id),
            "split": str(split),
            "num_nodes": int(graph.num_nodes),
            "num_edges": int(graph.num_edges),
            "num_node_features": int(graph.num_node_features),
            "num_edge_features": int(graph.num_edge_features),
            "source": str(source),
            "fingerprint": fingerprint,
        }
        nbytes = sum(_aligned(a.nbytes) for a in arrays.values())
        if self._pending and self._pending_bytes + nbytes > self.max_shard_bytes:
            self._flush()
        self._pending.append((doc, arrays))
        self._pending_bytes += nbytes
        self._splits[doc["split"]] = self._splits.get(doc["split"], 0) + 1
        if self._pending_bytes >= self.max_shard_bytes:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        name = f"shard-{len(self._shards):05d}"
        with get_tracer().span(
            "store.ingest.flush",
            category="store",
            shard=name,
            events=len(self._pending),
            bytes=self._pending_bytes,
        ):
            blob = io.BytesIO()
            events = []
            for doc, arrays in self._pending:
                specs = {}
                for key, arr in arrays.items():
                    offset = blob.tell()
                    blob.write(arr.tobytes())
                    blob.write(b"\x00" * ((-arr.nbytes) % ARRAY_ALIGN))
                    specs[key] = array_spec(arr, offset)
                events.append({**doc, "arrays": specs})
            data = blob.getvalue()
            atomic_write_bytes(
                os.path.join(self.directory, shard_bin_name(name)), data
            )
            index_bytes = canonical_json(
                seal_document({"format": STORE_FORMAT, "shard": name, "events": events})
            )
            atomic_write_bytes(
                os.path.join(self.directory, shard_index_name(name)), index_bytes
            )
            self._shards.append(
                {
                    "name": name,
                    "bytes": len(data),
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "index_sha256": hashlib.sha256(index_bytes).hexdigest(),
                    "events": len(events),
                }
            )
        get_metrics().counter("store.ingest.shards").add(1)
        get_metrics().counter("store.ingest.bytes").add(len(data))
        self._pending = []
        self._pending_bytes = 0

    def close(self) -> Dict:
        """Flush the tail shard and seal the store with its manifest."""
        if self._closed:
            assert self._manifest is not None
            return self._manifest
        self._flush()
        manifest = seal_document(
            {
                "format": STORE_FORMAT,
                "shards": self._shards,
                "events": sum(s["events"] for s in self._shards),
                "splits": self._splits,
                "meta": self.meta,
            }
        )
        atomic_write_bytes(
            os.path.join(self.directory, MANIFEST_NAME), canonical_json(manifest)
        )
        self._closed = True
        self._manifest = manifest
        return manifest

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # only seal on a clean exit: an exception mid-ingest must not
        # produce a manifest claiming the store is complete
        if exc_type is None:
            self.close()


# ----------------------------------------------------------------------
# guarded ingestion front doors
# ----------------------------------------------------------------------
@dataclass
class IngestReport:
    """What one ingestion run did (returned by every ``ingest_*``)."""

    seen: int = 0
    ingested: int = 0
    quarantined: int = 0
    shards: int = 0
    bytes_written: int = 0
    splits: Dict[str, int] = field(default_factory=dict)
    swept_tmp: int = 0

    def finish(self, manifest: Dict, swept: Sequence[str]) -> "IngestReport":
        self.shards = len(manifest["shards"])
        self.bytes_written = sum(s["bytes"] for s in manifest["shards"])
        self.splits = dict(manifest["splits"])
        self.swept_tmp = len(swept)
        return self


def _as_log(quarantine_log) -> Optional[QuarantineLog]:
    if quarantine_log is None or isinstance(quarantine_log, QuarantineLog):
        return quarantine_log
    return QuarantineLog(str(quarantine_log))


def _ingest(
    items: Iterable[Tuple[str, object]],
    directory: str,
    validator,
    kind: str,
    meta: Dict,
    to_graph: Callable[[object], Tuple[EventGraph, Dict]],
    quarantine_log,
    max_shard_bytes: int,
    overwrite: bool,
    **span_attrs,
) -> IngestReport:
    """The one ingestion loop behind every front door.

    ``items`` yields ``(split, item)``; an item the ``validator`` rejects
    (``None`` = no validation) is quarantined and counted, a survivor is
    turned into ``(graph, add_graph keywords)`` by ``to_graph`` and
    written.  The store is sealed only if the loop completes.
    """
    quarantine = (
        Quarantine(validator, context="store.ingest", log=_as_log(quarantine_log), kind=kind)
        if validator is not None
        else None
    )
    report = IngestReport()
    writer = StoreWriter(
        directory, max_shard_bytes=max_shard_bytes, meta=meta, overwrite=overwrite
    )
    with get_tracer().span("store.ingest", category="store", **span_attrs):
        with writer:
            for split, item in items:
                report.seen += 1
                if quarantine is not None and not quarantine.admit(
                    item, obj_id=item.event_id
                ):
                    report.quarantined += 1
                    continue
                graph, extra = to_graph(item)
                writer.add_graph(graph, split=split, **extra)
                report.ingested += 1
    return report.finish(writer.close(), writer.swept)


def ingest_graphs(
    graphs: Iterable[EventGraph],
    directory: str,
    split: str = "train",
    validate: bool = True,
    require_labels: bool = True,
    quarantine_log=None,
    max_shard_bytes: int = DEFAULT_SHARD_BYTES,
    overwrite: bool = False,
    meta: Optional[Dict] = None,
) -> IngestReport:
    """Compact pre-built graphs into a store, quarantining invalid ones."""
    return _ingest(
        ((split, graph) for graph in graphs),
        directory,
        GraphValidator(require_labels=require_labels) if validate else None,
        "graph",
        {"graphs": "builder", **(meta or {})},
        lambda graph: (graph, {}),
        quarantine_log, max_shard_bytes, overwrite,
        mode="graphs",
    )


def ingest_simulated(
    config_or_name,
    directory: str,
    geometry=None,
    validate: bool = True,
    quarantine_log=None,
    max_shard_bytes: int = DEFAULT_SHARD_BYTES,
    overwrite: bool = False,
) -> IngestReport:
    """Simulate a registered dataset straight into a store.

    Mirrors :func:`repro.detector.make_dataset` event for event (same
    per-event seeds, same builder), but each raw event is validated
    through :class:`repro.guard.EventValidator` before graph
    construction and the graphs are compacted into shards instead of
    held in RAM — the streaming twin of the in-memory dataset factory.
    Event fingerprints are recorded so the serving tier can key replays
    to stored graphs.
    """
    from ..detector.datasets import _default_geometry, _make_simulator, dataset_config
    from ..detector.builders import build_candidate_graph
    from ..serve.cache import event_fingerprint

    config = (
        dataset_config(config_or_name)
        if isinstance(config_or_name, str)
        else config_or_name
    )
    geometry = geometry if geometry is not None else _default_geometry(config)
    simulator = _make_simulator(config, geometry)

    def events():
        event_id = 0
        for split, count in (
            ("train", config.num_train),
            ("val", config.num_val),
            ("test", config.num_test),
        ):
            for _ in range(count):
                rng = np.random.default_rng(config.seed + event_id)
                yield split, simulator.generate(rng, event_id=event_id)
                event_id += 1

    return _ingest(
        events(),
        directory,
        EventValidator.for_geometry(geometry) if validate else None,
        "event",
        {"graphs": "builder", "dataset": config.name, "seed": config.seed},
        lambda event: (
            build_candidate_graph(event, geometry, config.builder),
            {"fingerprint": event_fingerprint(event)},
        ),
        quarantine_log, max_shard_bytes, overwrite,
        mode="simulated", dataset=config.name,
    )


def ingest_construction(
    pipeline,
    events: Iterable,
    directory: str,
    split: str = "serve",
    validate: bool = True,
    quarantine_log=None,
    max_shard_bytes: int = DEFAULT_SHARD_BYTES,
    overwrite: bool = False,
) -> IngestReport:
    """Precompute a fitted pipeline's construction graphs into a store.

    The stored graphs are what the pipeline's own inference traversal
    constructs for each event (:meth:`ExaTrkXPipeline.construct_many`,
    the entry point serving uses), keyed by event fingerprint
    — exactly what :class:`repro.serve.InferenceEngine` needs to hydrate
    replayed requests from the warm shard cache instead of rebuilding
    the graph from the request payload.  The manifest records
    ``meta["graphs"] == "construction"``; the engine refuses stores that
    hold builder graphs, which belong to a different stage.
    """
    from ..serve.cache import event_fingerprint

    return _ingest(
        ((split, event) for event in events),
        directory,
        EventValidator() if validate else None,
        "event",
        {"graphs": "construction"},
        lambda event: (
            pipeline.construct_many([event])[0],
            {"fingerprint": event_fingerprint(event), "source": "construction"},
        ),
        quarantine_log, max_shard_bytes, overwrite,
        mode="construction",
    )
