"""Learned components of the pipeline: IGNN, embedding and filter MLPs."""

from .interaction_gnn import IGNNConfig, InteractionGNN
from .embedding_net import EmbeddingConfig, EmbeddingNet, sample_training_pairs
from .filter_net import FilterConfig, FilterNet

__all__ = [
    "IGNNConfig",
    "InteractionGNN",
    "EmbeddingConfig",
    "EmbeddingNet",
    "sample_training_pairs",
    "FilterConfig",
    "FilterNet",
]
