"""Stage-3 edge-filter network.

A cheap MLP classifier that scores each candidate edge from the
concatenation of its endpoint hit features and its edge features, so that
obviously-false edges can be pruned before the memory-intensive GNN ("the
pipeline shrinks this graph with an MLP before being fed into the
memory-intensive GNN").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import MLP
from ..tensor import Tensor, ops
from .edge_classifier import EdgeClassifier

__all__ = ["FilterConfig", "FilterNet"]


@dataclass(frozen=True)
class FilterConfig:
    """Hyper-parameters of the filter MLP."""

    node_features: int
    edge_features: int
    hidden: int = 64
    mlp_layers: int = 3
    seed: int = 0


class FilterNet(EdgeClassifier):
    """Edge scorer: ``φ([x_src  x_dst  y_edge]) → logit``."""

    def __init__(self, config: FilterConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.mlp = MLP(
            2 * config.node_features + config.edge_features,
            config.hidden,
            out_features=1,
            num_layers=config.mlp_layers,
            layer_norm=True,
            output_activation=False,
            rng=rng,
        )

    def forward(self, x: Tensor, y: Tensor, rows, cols) -> Tensor:
        """Return ``(m,)`` edge logits; ``rows`` / ``cols`` are index
        arrays or their :class:`~repro.tensor.kernels.ScatterPlan` values."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        y = y if isinstance(y, Tensor) else Tensor(y)
        feats = ops.concat(
            [ops.gather_rows(x, rows), ops.gather_rows(x, cols), y], axis=1
        )
        return self.mlp(feats).reshape(-1)
