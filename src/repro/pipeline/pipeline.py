"""End-to-end Exa.TrkX-style pipeline (Figure 1).

``fit`` trains the three learned stages in order — embedding, filter,
GNN — each consuming the previous stage's output on the training events.

Inference is ONE traversal, shared by every caller (``reconstruct``, the
serving engine, the diagnostics, the construction-store ingest):
``upstream_many`` (construction + filter) then ``finish_from_filtered``
per event (GNN + track building).  No forward ever sees two events — a
batch is a map of the single-event stage call over the cores — so an
event's result is bit-identical alone or in any batch, on any number of
threads, and ``fit`` (a loop), evaluation and serving score alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..detector import Event
from ..detector.geometry import DetectorGeometry
from ..graph import EventGraph
from ..guard import EventValidator, Quarantine, QuarantineLog
from ..metrics import TrackingScore, match_tracks
from ..obs import get_tracer
from ._per_event import per_event
from .config import PipelineConfig
from .embedding_stage import EmbeddingStage
from .filter_stage import FilterStage
from .gnn_stage import GNNStage
from .graph_construction import GraphConstructionStage
from .track_building import build_tracks, build_tracks_walkthrough

__all__ = ["PipelineReport", "UpstreamStages", "ExaTrkXPipeline"]


class _ModuleMapConstruction:
    """Adapter giving :class:`repro.detector.ModuleMap` the construction-
    stage interface (``build`` / ``build_many`` / ``edge_efficiency``)
    the pipeline expects."""

    def __init__(self, module_map) -> None:
        self.module_map = module_map

    def build(self, event: Event):
        return self.module_map.build(event)

    def build_many(self, events: Sequence[Event]):
        return list(per_event(self.build, events))

    def edge_efficiency(self, event: Event, graph=None) -> float:
        return self.module_map.edge_efficiency(event, graph)


@dataclass
class PipelineReport:
    """Diagnostics collected while fitting the pipeline."""

    graph_edge_efficiency: float = 0.0
    filter_segment_recall: float = 0.0
    filter_kept_fraction: float = 0.0
    gnn_final_precision: float = 0.0
    gnn_final_recall: float = 0.0
    quarantined_events: int = 0  # inputs dropped by validate_inputs
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class UpstreamStages:
    """One event's construction + filter outputs (:meth:`upstream_many`).

    ``graph`` is the labelled candidate graph (construction output);
    ``filtered`` / ``filter_keep`` / ``filter_scores`` are the filter
    stage's pruned graph, keep mask, and pre-threshold scores over
    ``graph``'s edges.  The serving tier memoises these per event
    fingerprint (as ``repro.serve.CachedStages``).
    """

    graph: EventGraph
    filtered: EventGraph
    filter_keep: np.ndarray
    filter_scores: np.ndarray


class ExaTrkXPipeline:
    """The five-stage tracking pipeline.

    Parameters
    ----------
    config:
        All stage hyper-parameters.
    geometry:
        Detector description used for feature extraction.
    """

    def __init__(self, config: PipelineConfig, geometry: DetectorGeometry) -> None:
        self.config = config
        self.geometry = geometry
        self.embedding = EmbeddingStage(config, geometry)
        self.construction: Optional[GraphConstructionStage] = None
        self.filter = FilterStage(config)
        self.gnn = GNNStage(config)
        self.report = PipelineReport()

    # ------------------------------------------------------------------
    def fit(
        self,
        train_events: Sequence[Event],
        val_events: Sequence[Event],
        rng: Optional[np.random.Generator] = None,
    ) -> PipelineReport:
        """Train every learned stage; returns fit diagnostics.

        With ``config.validate_inputs``, malformed events (NaN
        coordinates, duplicate hits, layer ids outside the geometry,
        inconsistent truth arrays, …) are quarantined at ingestion —
        dropped with a structured reason (``guard.quarantine.*``
        counters, optional JSONL log at ``config.quarantine_log``) —
        instead of crashing a stage mid-fit.  See ``docs/resilience.md``.
        """
        rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        tracer = get_tracer()

        if self.config.validate_inputs:
            quarantine = Quarantine(
                EventValidator.for_geometry(self.geometry),
                context="pipeline.fit",
                log=(
                    QuarantineLog(self.config.quarantine_log)
                    if self.config.quarantine_log
                    else None
                ),
                kind="event",
            )
            train_events = quarantine.filter(list(train_events))
            val_events = quarantine.filter(list(val_events))
            self.report.quarantined_events = quarantine.quarantined
            if not train_events:
                raise ValueError(
                    "every training event was quarantined "
                    f"({quarantine.quarantined} dropped); nothing to fit"
                )

        with tracer.span(
            "pipeline.fit", category="pipeline", events=len(train_events)
        ):
            # Stages 1–2: candidate-graph construction strategy
            with tracer.span(
                "pipeline.embedding", category="pipeline",
                strategy=self.config.construction,
            ):
                if self.config.construction == "module_map":
                    from ..detector import ModuleMap, ModuleMapConfig

                    mm = ModuleMap(
                        self.geometry,
                        ModuleMapConfig(
                            num_phi_sectors=self.config.module_map_phi_sectors,
                            num_z_sectors=self.config.module_map_z_sectors,
                            feature_scheme=self.config.feature_scheme,
                        ),
                    ).fit(train_events)
                    self.construction = _ModuleMapConstruction(mm)
                else:
                    self.embedding.fit(train_events, rng)
                    self.construction = GraphConstructionStage(
                        self.config, self.geometry, self.embedding
                    )

            with tracer.span("pipeline.graph_construction", category="pipeline"):
                train_graphs = [self.construction.build(e) for e in train_events]
                val_graphs = [self.construction.build(e) for e in val_events]
            effs = [
                self.construction.edge_efficiency(e, g)
                for e, g in zip(train_events, train_graphs)
            ]
            self.report.graph_edge_efficiency = float(np.mean(effs))

            # Stage 3: filter
            with tracer.span("pipeline.filter", category="pipeline"):
                self.filter.fit(train_graphs, rng)
                pruned_train, recalls, kept = [], [], []
                for g in train_graphs:
                    pg, keep = self.filter.prune(g)
                    pruned_train.append(pg)
                    recalls.append(self.filter.segment_recall(g, keep))
                    kept.append(keep.mean() if keep.size else 1.0)
                pruned_val = [self.filter.prune(g)[0] for g in val_graphs]
            self.report.filter_segment_recall = float(np.mean(recalls))
            self.report.filter_kept_fraction = float(np.mean(kept))

            # Stage 4: GNN
            with tracer.span("pipeline.gnn", category="pipeline"):
                self.gnn.fit(pruned_train, pruned_val)
            final = self.gnn.result.history.final
            self.report.gnn_final_precision = final.val_precision
            self.report.gnn_final_recall = final.val_recall
        return self.report

    # ------------------------------------------------------------------
    def astype(self, dtype) -> "ExaTrkXPipeline":
        """Cast every fitted stage network to ``dtype`` in place, in eval mode.

        The serving engine's ``precision`` knob uses this to run a
        fitted pipeline in the float64 reference mode (or back to the
        float32 deployment mode).  Unfitted stages are skipped.
        """
        for net in (
            self.embedding.net,
            self.filter.net,
            self.gnn.result.model if self.gnn.result is not None else None,
        ):
            if net is not None:
                net.astype(dtype).eval()
        return self

    # -- inference: the one traversal -----------------------------------
    def construct_many(
        self, events: Sequence[Event], span: str = "pipeline.graph_construction"
    ) -> List[EventGraph]:
        """Stages 1–2 for several events: per event, the embedding
        forward, then the FRNN search / labelling."""
        if self.construction is None:
            raise RuntimeError("pipeline not fitted")
        with get_tracer().span(
            span, category=span.split(".")[0], events=len(events)
        ):
            return self.construction.build_many(events)

    def upstream_many(
        self,
        events: Sequence[Event],
        graphs: Optional[Sequence[Optional[EventGraph]]] = None,
        spans: Tuple[str, str] = ("pipeline.graph_construction", "pipeline.filter"),
    ) -> List[UpstreamStages]:
        """Stages 1–3 for several events, one forward per event and stage.

        A non-``None`` ``graphs[i]`` is a construction graph the caller
        already holds for ``events[i]`` (the serving engine hydrates them
        from a store written by :func:`repro.store.ingest_construction`);
        only the remaining events are constructed.  ``spans`` names the
        two stage spans — the engine records them as ``serve.stage.*``.
        """
        graphs = list(graphs) if graphs is not None else [None] * len(events)
        cold = [i for i, g in enumerate(graphs) if g is None]
        if cold:
            built = self.construct_many([events[i] for i in cold], span=spans[0])
            for i, graph in zip(cold, built):
                graphs[i] = graph
        with get_tracer().span(
            spans[1], category=spans[1].split(".")[0], graphs=len(graphs)
        ):
            pruned = self.filter.prune_many(graphs)
        return [UpstreamStages(g, *triple) for g, triple in zip(graphs, pruned)]

    def gnn_prune(
        self, graph: EventGraph
    ) -> Tuple[EventGraph, np.ndarray, np.ndarray]:
        """Stage 4 on a filter-pruned graph: ``(pruned, keep, scores)``
        from :meth:`GNNStage.prune`, cut at ``config.gnn.threshold``."""
        with get_tracer().span("pipeline.gnn", category="pipeline"):
            return self.gnn.prune(graph)

    def finish_from_filtered(
        self,
        graph: EventGraph,
        scores: Optional[np.ndarray] = None,
        min_score: Optional[float] = None,
    ) -> List[np.ndarray]:
        """Stages 4–5 on a filter-pruned graph: edge scores → tracks.

        The only place a track builder is chosen.  By default the GNN
        scores ``graph``'s edges and cuts at ``config.gnn.threshold``.
        A caller that already holds per-edge ``scores`` passes them (with
        the ``min_score`` to cut at) and no GNN forward runs: the serving
        engine's degraded mode hands in the filter's kept scores, the
        diagnostics the scores :meth:`gnn_prune` just returned.
        """
        pruned = None
        if scores is None:
            if min_score is not None:
                raise ValueError("min_score applies to caller-supplied scores")
            pruned, _, scores = self.gnn_prune(graph)
        if min_score is None:
            min_score = self.config.gnn.threshold
        min_hits = self.config.min_track_hits
        with get_tracer().span("pipeline.track_building", category="pipeline"):
            if self.config.track_builder == "walkthrough":
                return build_tracks_walkthrough(
                    graph, scores, min_hits=min_hits, min_score=min_score
                )
            if pruned is None:
                pruned = graph.edge_mask_subgraph(scores >= min_score)
            return build_tracks(pruned, min_hits=min_hits)

    def reconstruct_many(self, events: Sequence[Event]) -> List[List[np.ndarray]]:
        """Run inference: per event, hits → track candidates (hit-index
        arrays).  Results do not depend on which events share a call."""
        with get_tracer().span(
            "pipeline.reconstruct", category="pipeline", events=len(events)
        ):
            filtered = [staged.filtered for staged in self.upstream_many(events)]
            return list(per_event(self.finish_from_filtered, filtered))

    def reconstruct(self, event: Event) -> List[np.ndarray]:
        """:meth:`reconstruct_many` on one event."""
        return self.reconstruct_many([event])[0]

    def score_event(self, event: Event) -> TrackingScore:
        """Reconstruct and score one event against its truth."""
        with get_tracer().span(
            "pipeline.score", category="pipeline", event=event.event_id
        ):
            candidates = self.reconstruct(event)
            return match_tracks(
                candidates, event.particle_ids, min_hits=self.config.min_track_hits
            )
