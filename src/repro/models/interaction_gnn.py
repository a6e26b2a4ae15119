"""Interaction GNN — Algorithm 1 of the paper.

The Exa.TrkX pipeline's edge classifier is an Interaction Network
(Battaglia et al., 2016): each layer builds a message per edge from the
edge's state and its endpoints' states, aggregates messages at each vertex
by summation, and updates vertex states with an MLP.  After ``L`` layers a
scoring MLP maps the final edge states to one logit per edge.

Faithful to Algorithm 1:

* node/edge encoders first lift raw features to the hidden width
  (``X⁰ ← φ(X)``, ``Y⁰ ← φ(Y)``);
* every layer concatenates the current state with the layer-0 encoding
  (the residual concatenation ``X' ← [Xˡ X⁰]``, ``Y' ← [Yˡ Y⁰]``; the
  block hands its graph ops the pairs ``(Xˡ, X⁰)`` and ``(Yˡ, Y⁰)``
  instead of building the ``(n, 2h)`` / ``(m, 2h)`` copies);
* the message step is ``Yˡ⁺¹ ← φ([Y'  X'[A.rows]  X'[A.cols]])``;
* aggregation is two segment sums, over sources and destinations
  (``M_src ← REDUCTION(Y, A.rows, +)``, ``M_dst ← REDUCTION(Y, A.cols, +)``);
* the vertex update is ``Xˡ⁺¹ ← φ([M_src  M_dst  X'])``.

The network is encoders + a list of blocks + a scoring head, and
:meth:`InteractionGNN.forward` is the only traversal of that list.  Each
block holds *distinct* MLPs (the paper: "While each MLP is distinct,
superscripts are omitted").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

import numpy as np

from .._per_event import per_event
from ..nn import MLP, Module
from ..tensor import Tensor, ops
from ..tensor.kernels import ScatterPlan
from .edge_classifier import EdgeClassifier

__all__ = ["IGNNConfig", "InteractionGNN"]


@dataclass(frozen=True)
class IGNNConfig:
    """Hyper-parameters of the Interaction GNN.

    Defaults follow Section IV-A: hidden dimension 64, 8 message-passing
    layers; ``mlp_layers`` is per-dataset (Table I: 3 for CTD, 2 for Ex3).
    """

    node_features: int
    edge_features: int
    hidden: int = 64
    num_layers: int = 8
    mlp_layers: int = 2
    layer_norm: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_features < 1 or self.edge_features < 1:
            raise ValueError("feature dims must be positive")
        if self.hidden < 1 or self.num_layers < 1 or self.mlp_layers < 1:
            raise ValueError("hidden/num_layers/mlp_layers must be positive")


def _mlp(config: IGNNConfig, in_features: int, rng, *, logits: bool = False) -> MLP:
    """One φ of Algorithm 1; ``logits`` makes it the raw-score head."""
    return MLP(
        in_features,
        config.hidden,
        out_features=1 if logits else None,
        num_layers=config.mlp_layers,
        layer_norm=config.layer_norm,
        output_activation=not logits,
        rng=rng,
    )


class _IGNNLayer(Module):
    """One message-passing iteration (lines 5-10 of Algorithm 1)."""

    def __init__(self, config: IGNNConfig, rng) -> None:
        super().__init__()
        # Inputs: Y' (2h = Yˡ ++ Y⁰) ++ X'[rows] (2h) ++ X'[cols] (2h)
        self.edge_mlp = _mlp(config, 6 * config.hidden, rng)
        # Inputs: M_src (h) ++ M_dst (h) ++ X' (2h)
        self.node_mlp = _mlp(config, 4 * config.hidden, rng)

    def forward(
        self, x: Tensor, y: Tensor, x0: Tensor, y0: Tensor, rows, cols, update=True
    ):
        """``(Xˡ⁺¹, Yˡ⁺¹)`` — or ``Yˡ⁺¹`` alone with ``update=False``, for
        a caller that will not read the vertex states again."""
        # X' is the pair (Xˡ, X⁰), read in place by MSG and AGG.  Each
        # half reaches both through one fan-in node, so a block hands X⁰
        # one gradient — what a recomputed block hands it.  X⁰'s node is
        # recorded first so backward runs it second: in block 0, where Xˡ
        # is X⁰, the Xˡ half is added first, as there.
        x0_in = ops.fan_in(x0)
        x_res = (ops.fan_in(x), x0_in)
        # MSG: the first edge-MLP layer is fused with the endpoint gathers
        # (matmul-then-gather: n·f·h instead of m·f·h per endpoint block),
        # then the MLP tail runs as usual.  Y' is the pair (Yˡ, Y⁰), read
        # in place too.
        y_next = self.edge_mlp.forward_tail(
            ops.gather_concat_matmul(
                (y, y0), x_res, rows, cols, *self.edge_mlp.first_layer
            )
        )
        if not update:
            return y_next
        return self.update(x, x_res, y_next, rows, cols), y_next

    def update(self, x: Tensor, x_res, y_next: Tensor, rows, cols) -> Tensor:
        """AGG + vertex update: ``Xˡ⁺¹ ← φ([M_src  M_dst  X'])``, with both
        segment sums and the concat with X' fused into the first node-MLP
        layer."""
        weight, bias, norm = self.node_mlp.first_layer
        return self.node_mlp.forward_tail(
            ops.scatter_mlp_input(
                y_next, rows, cols, x_res, weight, bias, x.shape[0], norm
            )
        )


class InteractionGNN(EdgeClassifier):
    """The full Interaction GNN with a per-edge scoring head.

    Call signature matches Algorithm 1's inputs: the COO adjacency
    (``rows``/``cols``), node features ``X`` and edge features ``Y``.

    Returns the ``(m,)`` edge logits (``σ`` is applied by the loss / the
    evaluation code, never inside the network).
    """

    def __init__(self, config: IGNNConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.node_encoder = _mlp(config, config.node_features, rng)
        self.edge_encoder = _mlp(config, config.edge_features, rng)
        #: the message-passing iterations, in application order, named
        #: ``layer0`` … (names and RNG draw order are frozen — they fix the
        #: weights and the coalesced flatten order)
        self.blocks: List[_IGNNLayer] = [
            _IGNNLayer(config, rng) for _ in range(config.num_layers)
        ]
        for l, block in enumerate(self.blocks):
            self.register_module(f"layer{l}", block)
        self.output_mlp = _mlp(config, config.hidden, rng, logits=True)

    def forward(
        self,
        x: Tensor,
        y: Tensor,
        rows,
        cols,
        recompute: bool = False,
    ) -> Tensor:
        """Run edge classification.

        Parameters
        ----------
        x:
            ``(n, f_v)`` node features.
        y:
            ``(m, f_e)`` edge features.
        rows, cols:
            ``(m,)`` COO adjacency (``A.rows`` / ``A.cols``): index arrays
            or their :class:`~repro.tensor.kernels.ScatterPlan` values (an
            :class:`~repro.graph.EventGraph` holds its own, and
            :meth:`logits` passes them).  Arrays get one plan each for the
            whole forward and backward.
        recompute:
            Keep only each block's boundary states ``(Xˡ, Yˡ)`` and
            recompute its interior during backward
            (:func:`repro.tensor.ops.checkpoint`): same logits, same
            gradients, ``O(L·(n+m)·f)`` stored instead of ``O(L·m·6f)``.

        A graph that is a disjoint union of parts (no edge joins two parts)
        may come as per-part tuples: ``x``, ``y``, ``rows`` and ``cols``
        each hold one entry per part, each part's ids local to it.  The
        traversal then runs once per part, as lanes on the per-event pool
        (:func:`repro._per_event.per_event`), and returns when every part
        has; the logits are the parts' in order, as one
        :func:`repro.tensor.ops.parts` node whose backward runs the parts'
        tapes as lanes too.  Each part's logits are the whole graph's
        logits on its rows, up to BLAS blocking in the last bits.  Not
        with ``recompute``.

        Returns
        -------
        Tensor
            ``(m,)`` edge logits.
        """
        if isinstance(x, tuple):
            if recompute:
                raise ValueError("a forward over parts does not recompute")
            return ops.parts(per_event(self._traverse, x, y, rows, cols), per_event)
        return self._traverse(x, y, rows, cols, recompute)

    def _traverse(self, x, y, rows, cols, recompute: bool = False) -> Tensor:
        """The one traversal of encoders, blocks and head on one graph."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        y = y if isinstance(y, Tensor) else Tensor(y)
        rows, cols = ScatterPlan.of(rows), ScatterPlan.of(cols)
        if y.shape[0] != rows.length or rows.length != cols.length:
            raise ValueError("edge feature rows must match adjacency length")
        x0 = self.node_encoder(x)
        y0 = self.edge_encoder(y)
        xl, yl = x0, y0

        def apply(block, update=True):
            step = partial(block, rows=rows, cols=cols, update=update)
            if recompute:
                return ops.checkpoint(step, xl, yl, x0, y0)
            return step(xl, yl, x0, y0)

        for block in self.blocks[:-1]:
            xl, yl = apply(block)
        # the head scores Y^L: the final application's X^L is never read
        yl = apply(self.blocks[-1], update=False)
        return self.output_mlp(yl).reshape(-1)
