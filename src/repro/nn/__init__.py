"""Neural-network building blocks on the :mod:`repro.tensor` engine.

Provides the Module/Parameter system, Linear/LayerNorm/MLP layers,
optimisers (SGD, Adam), LR schedulers, and the losses used across the
Exa.TrkX pipeline stages.
"""

from .module import Module, Parameter
from .linear import Dropout, Identity, LayerNorm, Linear, ReLU, Sequential, Tanh
from .mlp import MLP
from .optim import SGD, Adam, Optimizer
from .schedulers import CosineAnnealingLR, LRScheduler, StepLR, WarmupLR
from .losses import BCEWithLogitsLoss, HingeEmbeddingLoss, MSELoss, get_loss
from . import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Sequential",
    "ReLU",
    "Tanh",
    "Identity",
    "Dropout",
    "MLP",
    "Optimizer",
    "SGD",
    "Adam",
    "LRScheduler",
    "StepLR",
    "CosineAnnealingLR",
    "WarmupLR",
    "BCEWithLogitsLoss",
    "HingeEmbeddingLoss",
    "MSELoss",
    "get_loss",
    "init",
]
