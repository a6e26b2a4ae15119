"""Pipeline Stage 4: Interaction-GNN edge classification.

Thin stage wrapper around :mod:`repro.pipeline.trainers`: trains the IGNN
under the configured regime (full-graph / ShaDow / bulk ShaDow) and, at
inference, scores every edge of a graph and prunes those classified as
non-track.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..graph import EventGraph
from .config import PipelineConfig
from .filter_stage import score_cut
from .trainers import GNNTrainResult, train_gnn

__all__ = ["GNNStage"]


class GNNStage:
    """Trainable GNN edge classifier."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.result: GNNTrainResult | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        train_graphs: Sequence[EventGraph],
        val_graphs: Sequence[EventGraph],
    ) -> "GNNStage":
        """Train under ``config.gnn`` (mode, sampler, DDP, …)."""
        self.result = train_gnn(train_graphs, val_graphs, self.config.gnn)
        self.result.model.eval()  # inference() then writes no module state
        return self

    @property
    def model(self):
        if self.result is None:
            raise RuntimeError("GNN stage not fitted")
        return self.result.model

    # ------------------------------------------------------------------
    def prune(
        self, graph: EventGraph
    ) -> Tuple[EventGraph, np.ndarray, np.ndarray]:
        """Remove edges the GNN classifies as non-track.

        Returns ``(pruned_graph, keep_mask, scores)`` — the mask and the
        pre-threshold edge probabilities are over the input edges (the
        same triple :meth:`FilterStage.prune_many` yields per graph).
        """
        return score_cut(graph, self.model.predict_proba, self.config.gnn.threshold)
