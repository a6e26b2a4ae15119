"""Per-stage pipeline diagnostics.

Tracking pipelines are tuned stage by stage: graph construction is pushed
toward recall (a truth segment missing from the candidate graph can never
be recovered), the filter toward high-recall pruning, the GNN toward
purity.  This module measures each stage's contribution on one event so
regressions can be localised — the numbers behind acorn's per-stage
validation plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..detector import Event, segment_recall
from ..graph import EventGraph
from ..metrics import TrackingScore, match_tracks, roc_auc
from ..obs import get_tracer
from .pipeline import ExaTrkXPipeline

__all__ = ["StageReport", "EventDiagnostics", "diagnose_event"]


@dataclass(frozen=True)
class StageReport:
    """One stage's edge accounting.

    Attributes
    ----------
    name:
        Stage label.
    num_edges:
        Edges surviving after the stage.
    segment_recall:
        Fraction of the event's truth segments still present.
    purity:
        Fraction of surviving edges that are true segments.
    """

    name: str
    num_edges: int
    segment_recall: float
    purity: float


@dataclass
class EventDiagnostics:
    """Full per-stage trace of one event through the pipeline."""

    stages: List[StageReport]
    gnn_auc: Optional[float]
    tracking: TrackingScore

    def render(self) -> List[str]:
        lines = [f"{'stage':<22} | {'edges':>7} | {'seg recall':>10} | {'purity':>7}"]
        for s in self.stages:
            lines.append(
                f"{s.name:<22} | {s.num_edges:>7} | {s.segment_recall:>10.3f} | {s.purity:>7.3f}"
            )
        if self.gnn_auc is not None:
            lines.append(f"GNN edge-classifier ROC AUC: {self.gnn_auc:.3f}")
        t = self.tracking
        lines.append(
            f"tracking: efficiency={t.efficiency:.3f} fake rate={t.fake_rate:.3f} "
            f"duplicates={t.duplicate_rate:.3f} "
            f"({t.num_matched}/{t.num_reconstructable} matched)"
        )
        return lines


def _stage_report(name: str, event: Event, graph: EventGraph) -> StageReport:
    purity = (
        float(graph.edge_labels.mean()) if graph.num_edges and graph.edge_labels is not None else 0.0
    )
    return StageReport(
        name=name,
        num_edges=graph.num_edges,
        segment_recall=segment_recall(event, graph.edge_index),
        purity=purity,
    )


def diagnose_event(pipeline: ExaTrkXPipeline, event: Event) -> EventDiagnostics:
    """Trace one event through a fitted pipeline, measuring every stage.

    Reports on what the pipeline's own inference traversal returns
    (:meth:`ExaTrkXPipeline.upstream_many`, ``gnn_prune``,
    ``finish_from_filtered``), so ``tracking`` is exactly
    ``pipeline.score_event(event)`` for every configured track builder.

    Raises
    ------
    RuntimeError
        If the pipeline has not been fitted.
    """
    with get_tracer().span(
        "pipeline.diagnose_event", category="pipeline", event=event.event_id
    ):
        staged = pipeline.upstream_many([event])[0]
        filtered = staged.filtered
        pruned, _, scores = pipeline.gnn_prune(filtered)
        candidates = pipeline.finish_from_filtered(filtered, scores=scores)

        auc: Optional[float] = None
        if filtered.num_edges and filtered.edge_labels is not None:
            labels = filtered.edge_labels
            if 0 < labels.sum() < labels.size:
                auc = roc_auc(scores, labels)
        stages = [
            _stage_report("graph construction", event, staged.graph),
            _stage_report("filter MLP", event, filtered),
            _stage_report("interaction GNN", event, pruned),
        ]
        tracking = match_tracks(
            candidates, event.particle_ids, min_hits=pipeline.config.min_track_hits
        )
    return EventDiagnostics(stages=stages, gnn_auc=auc, tracking=tracking)
