"""Pipeline Stage 1: metric-learning hit embedding.

Trains :class:`repro.models.EmbeddingNet` so that hits of the same
particle land close together in the embedding space ("The MLP maps
coordinates belonging to the same track near each other in the embedding
space").  Positive training pairs are the truth track segments; negatives
are random hit pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..detector import Event, vertex_features
from ..detector.geometry import DetectorGeometry
from ..models import EmbeddingConfig, EmbeddingNet, sample_training_pairs
from ..nn import Adam, HingeEmbeddingLoss
from ..tensor import Tensor, ops
from .._per_event import per_event
from .config import PipelineConfig

__all__ = ["EmbeddingStage"]


class EmbeddingStage:
    """Trainable wrapper around the embedding network.

    Parameters
    ----------
    config:
        Pipeline configuration (embedding_* fields).
    geometry:
        Detector geometry (needed for feature extraction).
    """

    def __init__(self, config: PipelineConfig, geometry: DetectorGeometry) -> None:
        self.config = config
        self.geometry = geometry
        self.net: EmbeddingNet | None = None
        self.losses: List[float] = []

    # ------------------------------------------------------------------
    def build_net(self, node_features: int) -> EmbeddingNet:
        """A fresh (seeded, untrained) network for this config — what
        :meth:`fit` trains and ``load_pipeline`` fills with saved weights."""
        return EmbeddingNet(
            EmbeddingConfig(
                node_features=node_features,
                embedding_dim=self.config.embedding_dim,
                hidden=self.config.embedding_hidden,
                mlp_layers=self.config.mlp_layers,
                margin=self.config.embedding_margin,
                seed=self.config.seed,
            )
        )

    def fit(self, events: Sequence[Event], rng: np.random.Generator) -> "EmbeddingStage":
        """Train on the truth segments of the given events."""
        if not events:
            raise ValueError("no training events")
        feats = [vertex_features(e, self.geometry, self.config.feature_scheme) for e in events]
        net = self.build_net(feats[0].shape[1])
        optimizer = Adam(net.parameters(), lr=self.config.embedding_lr)
        loss_fn = HingeEmbeddingLoss(margin=self.config.embedding_margin)
        self.losses = []
        for epoch in range(self.config.embedding_epochs):
            mine_hard = (
                self.config.hard_negative_mining
                and epoch >= self.config.hnm_warmup_epochs
            )
            epoch_losses = []
            for event, x in zip(events, feats):
                segments = event.true_segments()
                if segments.shape[1] == 0:
                    continue
                src, dst, labels = sample_training_pairs(
                    segments,
                    event.num_hits,
                    self.config.negatives_per_positive,
                    rng,
                )
                if mine_hard:
                    h_src, h_dst = self._mine_hard_negatives(net, event, x)
                    if h_src.size:
                        src = np.concatenate([src, h_src])
                        dst = np.concatenate([dst, h_dst])
                        labels = np.concatenate(
                            [labels, np.zeros(h_src.size, dtype=np.float32)]
                        )
                optimizer.zero_grad()
                z = net(Tensor(x))
                d2 = ops.squared_distance(
                    ops.gather_rows(z, src), ops.gather_rows(z, dst)
                )
                loss = loss_fn(d2, labels)
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            self.losses.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
        self.net = net.eval()
        return self

    # ------------------------------------------------------------------
    def _mine_hard_negatives(self, net: EmbeddingNet, event: Event, x: np.ndarray):
        """False pairs the current embedding would wrongly connect.

        Runs the fixed-radius search on the current embeddings and keeps
        neighbour pairs whose hits belong to different particles (or
        noise): exactly the fakes the downstream graph construction would
        produce.
        """
        from ..graph import fixed_radius_graph

        z = net.embed(x)
        edge_index = fixed_radius_graph(
            z, radius=self.config.frnn_radius, max_neighbors=self.config.frnn_max_neighbors
        )
        if edge_index.shape[1] == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        pid = event.particle_ids
        src, dst = edge_index
        fake = (pid[src] != pid[dst]) | (pid[src] == 0)
        return src[fake], dst[fake]

    # ------------------------------------------------------------------
    def embed(self, event: Event) -> np.ndarray:
        """Embed one event's hits — the one forward every caller shares
        (``fit``'s graph building, serving, store ingest)."""
        if self.net is None:
            raise RuntimeError("embedding stage not fitted")
        return self.net.embed(
            vertex_features(event, self.geometry, self.config.feature_scheme)
        )

    def embed_many(self, events: Sequence[Event]) -> List[np.ndarray]:
        """:meth:`embed` per event, the events spread over the cores.

        No forward ever sees two events: a BLAS row's bits depend on how
        many rows share the call, so a batch is a per-event map, and an
        event's embedding cannot depend on what it is batched with.
        """
        return list(per_event(self.embed, events))
