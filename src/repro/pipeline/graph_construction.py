"""Pipeline Stage 2: fixed-radius graph construction in the embedding space.

Connects every pair of hits whose embeddings lie within the configured
radius, attaches the feature scheme's vertex/edge features, and labels
edges against the event truth.  Edges are oriented from the lower- to the
higher-radius hit (tracks propagate outward).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..detector import Event, edge_features, label_edges, segment_recall, vertex_features
from ..detector.geometry import DetectorGeometry
from ..graph import EventGraph, fixed_radius_graph
from ._per_event import per_event
from .config import PipelineConfig
from .embedding_stage import EmbeddingStage

__all__ = ["GraphConstructionStage"]


class GraphConstructionStage:
    """FRNN candidate-graph builder on top of a fitted embedding stage."""

    def __init__(
        self,
        config: PipelineConfig,
        geometry: DetectorGeometry,
        embedding: EmbeddingStage,
    ) -> None:
        self.config = config
        self.geometry = geometry
        self.embedding = embedding

    def build(self, event: Event, z: Optional[np.ndarray] = None) -> EventGraph:
        """Construct the labelled candidate graph of one event.

        ``z`` lets a caller supply the event's precomputed embeddings
        (:meth:`build_many` embeds its events first); everything
        downstream of the embedding is per-event regardless.
        """
        if z is None:
            z = self.embedding.embed(event)
        edge_index = fixed_radius_graph(
            z,
            radius=self.config.frnn_radius,
            max_neighbors=self.config.frnn_max_neighbors,
        )
        # orient outward: src = inner hit
        r = np.hypot(event.positions[:, 0], event.positions[:, 1])
        src, dst = edge_index
        swap = r[src] > r[dst]
        src2 = np.where(swap, dst, src)
        dst2 = np.where(swap, src, dst)
        edge_index = np.stack([src2, dst2])

        labels = label_edges(event, edge_index)
        return EventGraph(
            edge_index=edge_index,
            x=vertex_features(event, self.geometry, self.config.feature_scheme),
            y=edge_features(event, self.geometry, edge_index, self.config.feature_scheme),
            edge_labels=labels,
            particle_ids=event.particle_ids,
            event_id=event.event_id,
        )

    def build_many(self, events: Sequence[Event]) -> List[EventGraph]:
        """Construct several events' graphs: one
        :meth:`EmbeddingStage.embed_many` call (a per-event map; the traced
        ``pipeline.embed`` row times it), then :meth:`build` per event.
        Nothing spans two events, so no graph depends on its batch."""
        zs = self.embedding.embed_many(events)
        return list(per_event(self.build, events, zs))

    def edge_efficiency(self, event: Event, graph: Optional[EventGraph] = None) -> float:
        """Fraction of truth segments present in the constructed graph —
        the graph-construction recall the embedding stage is tuned for."""
        graph = graph if graph is not None else self.build(event)
        return segment_recall(event, graph.edge_index)
