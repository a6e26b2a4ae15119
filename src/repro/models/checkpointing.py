"""Gradient checkpointing for the Interaction GNN.

Section III-B's motivation for minibatching is that full-graph training
stores every layer's activations (the ``m·f`` matrices) and therefore
skips large events.  Checkpointing is the classical third option the paper
leaves on the table: store only the *layer-boundary* states during the
forward pass and recompute each layer's interior activations during
backward, cutting the stored footprint from ``O(L · m · f)`` layer
interiors to ``O(L · (n+m) · f)`` boundary states plus a single layer's
working set — at the cost of one extra forward per layer.

The mechanism is the generic autograd op
:func:`repro.tensor.ops.checkpoint`, applied per block by
``InteractionGNN.forward(..., recompute=True)``; the gradients are those
of ordinary backpropagation (bit for bit on the fused path).
:meth:`repro.memory.ActivationMemoryModel.checkpointed_bytes` prices the
reduced footprint for the trainer's skip decision and the ablation bench.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..tensor import Tensor
from .interaction_gnn import InteractionGNN

__all__ = ["CheckpointedIGNN"]


class CheckpointedIGNN:
    """Memory-frugal training step of an :class:`InteractionGNN`.

    The wrapper holds no state of its own; the wrapped network's
    parameters receive the gradients.
    """

    def __init__(self, model: InteractionGNN) -> None:
        self.model = model

    def training_step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        labels: np.ndarray,
        loss_fn: Callable[[Tensor, np.ndarray], Tensor],
    ) -> float:
        """Forward + backward with only block-boundary activations kept
        between the passes; accumulates parameter grads, returns the loss."""
        loss = loss_fn(self.model(x, y, rows, cols, recompute=True), labels)
        loss.backward()
        return loss.item()
