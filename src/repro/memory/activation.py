"""Activation-memory model of Interaction GNN training.

Section III-B: full-graph training must store every layer's output
matrices (``X^{l+1}``, ``Y^{l+1}``, ``M_src``, ``M_dst``) for
backpropagation, "the largest of which have m·f total elements" — so
events with large edge counts exceed GPU memory and the original
Exa.TrkX pipeline *skips* them.  This module computes that footprint
analytically so the full-graph trainer can make the same skip decision,
and so the `abl-skip` bench can sweep device capacities.

The terms price the unfused tape (an ``m × 6f`` message input per
layer), which only the tests' reference block builds
(``tests/models/test_fused_ignn.py``); the product's fused block builds
neither it nor the residuals ``[Yˡ Y⁰]`` and ``[Xˡ X⁰]``.  They stay:
they decide the full-graph skip and the rescue.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.interaction_gnn import IGNNConfig

__all__ = ["ActivationMemoryModel"]

_BYTES_PER_ELEMENT = 4  # float32


@dataclass(frozen=True)
class ActivationMemoryModel:
    """Per-event activation accounting for an IGNN configuration.

    The dominant stored tensors per message-passing layer are:

    * the concatenated message input ``[Y'  X'[rows]  X'[cols]]`` — ``m × 6f``;
    * the edge state ``Y^{l+1}`` — ``m × f`` (plus MLP hidden activations);
    * the two aggregates ``M_src``/``M_dst`` — ``n × f`` each;
    * the node update input ``[M_src  M_dst  X']`` — ``n × 4f`` and state
      ``X^{l+1}`` — ``n × f``.

    ``mlp_hidden_factor`` approximates the intermediate activations inside
    each φ (one ``f``-wide activation per hidden Linear).
    """

    config: IGNNConfig

    def elements_per_layer(self, num_nodes: int, num_edges: int) -> int:
        """Stored activation elements for one message-passing layer."""
        f = self.config.hidden
        hidden_acts = max(self.config.mlp_layers - 1, 0)
        edge_terms = 6 * f + f + hidden_acts * f      # msg input + Y^{l+1} + φ internals
        node_terms = 4 * f + f + 2 * f + hidden_acts * f  # update input + X^{l+1} + M_src/M_dst
        return num_edges * edge_terms + num_nodes * node_terms

    def total_bytes(self, num_nodes: int, num_edges: int) -> int:
        """Activation bytes to train one graph (all layers + encoders)."""
        f = self.config.hidden
        per_layer = self.elements_per_layer(num_nodes, num_edges)
        encoders = (num_nodes + num_edges) * f
        head = num_edges * f
        total_elements = self.config.num_layers * per_layer + encoders + head
        return total_elements * _BYTES_PER_ELEMENT

    def fits(self, num_nodes: int, num_edges: int, capacity_bytes: int) -> bool:
        """Whether training this event fits in ``capacity_bytes``."""
        return self.total_bytes(num_nodes, num_edges) <= capacity_bytes

    def checkpointed_bytes(self, num_nodes: int, num_edges: int) -> int:
        """Activation bytes under layer-boundary gradient checkpointing
        (``InteractionGNN.forward(..., recompute=True)``): the stored
        state is one ``(n+m)·f`` boundary pair per layer plus a single
        layer's working set for the recompute window."""
        f = self.config.hidden
        boundaries = (self.config.num_layers + 1) * (num_nodes + num_edges) * f
        window = self.elements_per_layer(num_nodes, num_edges)
        head = num_edges * f
        return (boundaries + window + head) * _BYTES_PER_ELEMENT

    def max_edges(self, num_nodes: int, capacity_bytes: int) -> int:
        """Largest edge count trainable at the given vertex count."""
        f = self.config.hidden
        hidden_acts = max(self.config.mlp_layers - 1, 0)
        edge_terms = 6 * f + f + hidden_acts * f
        node_terms = 4 * f + f + 2 * f + hidden_acts * f
        budget = capacity_bytes // _BYTES_PER_ELEMENT
        fixed = (
            self.config.num_layers * num_nodes * node_terms
            + num_nodes * f  # node encoder
        )
        per_edge = self.config.num_layers * edge_terms + f + f  # + encoder + head
        remaining = budget - fixed
        if remaining <= 0:
            return 0
        return int(remaining // per_edge)
