"""Learned components of the pipeline: IGNN, embedding and filter MLPs."""

from .interaction_gnn import IGNNConfig, InteractionGNN
from .recurrent_ignn import RecurrentInteractionGNN
from .gru_ignn import GRUInteractionGNN
from .embedding_net import EmbeddingConfig, EmbeddingNet, sample_training_pairs
from .filter_net import FilterConfig, FilterNet

__all__ = [
    "IGNNConfig",
    "InteractionGNN",
    "RecurrentInteractionGNN",
    "GRUInteractionGNN",
    "EmbeddingConfig",
    "EmbeddingNet",
    "sample_training_pairs",
    "FilterConfig",
    "FilterNet",
]
