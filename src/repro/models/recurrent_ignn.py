"""Weight-shared (recurrent) Interaction GNN.

acorn's production IGNN — and the embedded-space pipeline before it —
shares one message MLP and one node-update MLP across all
message-passing iterations: an 8-layer network with the parameter count
of one layer.  It is :class:`repro.models.InteractionGNN` over one
repeated block, so the ablation bench compares parameter count,
all-reduce volume and convergence of the same traversal.
"""

from __future__ import annotations

from .interaction_gnn import InteractionGNN, _IGNNLayer

__all__ = ["RecurrentInteractionGNN"]


class RecurrentInteractionGNN(InteractionGNN):
    """Interaction GNN applying one shared layer ``num_layers`` times."""

    def _build_blocks(self, config, rng):
        self.shared_layer = _IGNNLayer(config, rng)
        return [self.shared_layer] * config.num_layers
