"""Pipeline Stage 3: edge-filter MLP.

Scores every candidate edge with a cheap MLP and removes edges below a
low threshold, shrinking the graph before the memory-intensive GNN while
keeping the truth-segment recall close to one.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..graph import EventGraph
from ..models import FilterConfig, FilterNet
from ..nn import Adam, BCEWithLogitsLoss
from ..tensor import Tensor
from ._per_event import per_event
from .config import PipelineConfig
from .trainers import derive_pos_weight

__all__ = ["FilterStage"]


class FilterStage:
    """Trainable edge pre-filter."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.net: FilterNet | None = None
        self.losses: List[float] = []

    # ------------------------------------------------------------------
    def build_net(self, node_features: int, edge_features: int) -> FilterNet:
        """A fresh (seeded, untrained) network for this config — what
        :meth:`fit` trains and ``load_pipeline`` fills with saved weights."""
        return FilterNet(
            FilterConfig(
                node_features=node_features,
                edge_features=edge_features,
                hidden=self.config.filter_hidden,
                mlp_layers=self.config.mlp_layers,
                seed=self.config.seed,
            )
        )

    def fit(
        self, graphs: Sequence[EventGraph], rng: np.random.Generator
    ) -> "FilterStage":
        """Train the filter MLP on labelled candidate graphs."""
        if not graphs:
            raise ValueError("no training graphs")
        net = self.build_net(graphs[0].num_node_features, graphs[0].num_edge_features)
        optimizer = Adam(net.parameters(), lr=self.config.filter_lr)
        loss_fn = BCEWithLogitsLoss(pos_weight=derive_pos_weight(graphs))
        self.losses = []
        for _ in range(self.config.filter_epochs):
            epoch_losses = []
            for g in graphs:
                if g.num_edges == 0:
                    continue
                optimizer.zero_grad()
                logits = net(Tensor(g.x), Tensor(g.y), g.rows, g.cols)
                loss = loss_fn(logits, g.edge_labels.astype(np.float32))
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            self.losses.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
        self.net = net.eval()
        return self

    # ------------------------------------------------------------------
    def prune(self, graph: EventGraph) -> Tuple[EventGraph, np.ndarray]:
        """Remove edges scoring below the filter threshold.

        Returns the pruned graph and the boolean keep-mask over the input
        edges: :meth:`prune_many` on one graph, minus the scores.
        """
        return self.prune_many([graph])[0][:2]

    def prune_many(
        self, graphs: Sequence[EventGraph]
    ) -> List[Tuple[EventGraph, np.ndarray, np.ndarray]]:
        """Prune several graphs, one filter forward per graph.

        No forward ever sees two graphs: a BLAS row's bits depend on how
        many rows share the call, so a batch is a per-event map, and an
        edge's score cannot depend on which graphs share the call.

        Returns one ``(pruned_graph, keep_mask, scores)`` triple per
        input graph — ``scores`` are the pre-threshold filter
        probabilities over the *input* edges, which the serving engine's
        degraded mode reuses in place of GNN scores.
        """
        if self.net is None:
            raise RuntimeError("filter stage not fitted")
        return list(per_event(self._prune_one, graphs))

    def _prune_one(self, g: EventGraph) -> Tuple[EventGraph, np.ndarray, np.ndarray]:
        if g.num_edges == 0:
            return g, np.zeros(0, dtype=bool), np.zeros(0)
        scores = self.net.predict_proba(g)
        keep = scores >= self.config.filter_threshold
        return g.edge_mask_subgraph(keep), keep, scores

    def segment_recall(self, graph: EventGraph, keep: np.ndarray) -> float:
        """Fraction of true edges surviving the filter."""
        labels = graph.edge_labels.astype(bool)
        total = int(labels.sum())
        if total == 0:
            return 1.0
        return float(np.sum(labels & keep)) / total
