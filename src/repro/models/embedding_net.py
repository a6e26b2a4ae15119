"""Stage-1 metric-learning embedding network.

An MLP mapping each hit's feature vector into a ``d``-dimensional space in
which hits of the same particle sit close together; the fixed-radius
nearest-neighbour construction (Stage 2) then connects nearby embeddings.
Trained with a contrastive hinge loss over hit pairs: positive pairs
(consecutive hits of one particle) are pulled together, random negative
pairs are pushed beyond a margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..nn import MLP, Module
from ..tensor import Tensor, ops

__all__ = ["EmbeddingConfig", "EmbeddingNet", "sample_training_pairs"]


@dataclass(frozen=True)
class EmbeddingConfig:
    """Hyper-parameters of the embedding network."""

    node_features: int
    embedding_dim: int = 8
    hidden: int = 64
    mlp_layers: int = 3
    margin: float = 1.0
    seed: int = 0


class EmbeddingNet(Module):
    """Hit-feature → embedding-space MLP with L2-normalised outputs.

    Normalising embeddings to the unit sphere bounds all pairwise
    distances to [0, 2], which makes the FRNN radius a scale-free
    hyper-parameter.
    """

    def __init__(self, config: EmbeddingConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.mlp = MLP(
            config.node_features,
            config.hidden,
            out_features=config.embedding_dim,
            num_layers=config.mlp_layers,
            layer_norm=True,
            output_activation=False,
            rng=rng,
        )

    def forward(self, x: Tensor) -> Tensor:
        """Embed and L2-normalise: ``(n, f) -> (n, d)`` on the unit sphere."""
        z = self.mlp(x if isinstance(x, Tensor) else Tensor(x))
        norm_sq = ops.sum(ops.mul(z, z), axis=1, keepdims=True)
        inv = ops.pow(ops.add(norm_sq, Tensor(np.float32(1e-12))), -0.5)
        return ops.mul(z, inv)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Inference path: embeddings as a plain array (no autograd)."""
        with self.inference():
            z = self.forward(Tensor(np.asarray(x, dtype=np.float32)))
        return z.numpy()


def sample_training_pairs(
    true_segments: np.ndarray,
    num_nodes: int,
    num_negatives_per_positive: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build a pair-training set for the embedding loss.

    Parameters
    ----------
    true_segments:
        ``(2, s)`` truth segment hit pairs (positives).
    num_nodes:
        Total hit count (negatives are uniform random pairs, which are
        overwhelmingly likely to be from different particles).
    num_negatives_per_positive:
        Negative-sampling rate.

    Returns
    -------
    (src, dst, labels):
        Parallel arrays; ``labels`` is 1 for positive pairs.
    """
    s = true_segments.shape[1]
    n_neg = s * num_negatives_per_positive
    neg_src = rng.integers(0, num_nodes, size=n_neg)
    neg_dst = rng.integers(0, num_nodes, size=n_neg)
    keep = neg_src != neg_dst
    neg_src, neg_dst = neg_src[keep], neg_dst[keep]
    src = np.concatenate([true_segments[0], neg_src]).astype(np.int64)
    dst = np.concatenate([true_segments[1], neg_dst]).astype(np.int64)
    labels = np.concatenate(
        [np.ones(s, dtype=np.float32), np.zeros(len(neg_src), dtype=np.float32)]
    )
    return src, dst, labels
