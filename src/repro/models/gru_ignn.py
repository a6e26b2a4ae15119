"""Interaction GNN with GRU vertex updates.

acorn's production configuration replaces the node-update MLP of
Algorithm 1 with a GRU: the concatenated aggregates ``[M_src  M_dst]``
are the GRU input and the previous vertex state the hidden state.  The
gating lets very deep stacks (the paper uses 8 iterations) propagate
information without washing out early-layer features, complementing the
residual concatenation.

Weight-shared across iterations like
:class:`repro.models.RecurrentInteractionGNN` (a recurrent cell implies a
recurrent stack): the same traversal over one repeated block whose
vertex update is the cell.
"""

from __future__ import annotations

from ..nn import GRUCell
from ..tensor import ops
from .interaction_gnn import InteractionGNN, _IGNNLayer

__all__ = ["GRUInteractionGNN"]


class _GRULayer(_IGNNLayer):
    """Algorithm 1's iteration with ``Xˡ⁺¹ ← GRU([M_src  M_dst], Xˡ)``."""

    def _build_update(self, config, rng) -> None:
        self.node_gru = GRUCell(2 * config.hidden, config.hidden, rng=rng)

    def update(self, x, x_res, y_next, rows, cols):
        m_src = ops.segment_sum(y_next, rows, x.shape[0])
        m_dst = ops.segment_sum(y_next, cols, x.shape[0])
        return self.node_gru(ops.concat([m_src, m_dst], axis=1), x)


class GRUInteractionGNN(InteractionGNN):
    """IGNN with a shared message MLP and a GRU vertex update."""

    def _build_blocks(self, config, rng):
        self.shared_layer = _GRULayer(config, rng)
        return [self.shared_layer] * config.num_layers
