"""Configurable multi-layer perceptron.

Every learned component of the Exa.TrkX pipeline is an MLP: the stage-1
embedding network, the stage-3 edge filter, and the per-layer message /
aggregation networks ``φ`` inside the Interaction GNN (Algorithm 1).  Table
I of the paper records the MLP depth per dataset (3 for CTD, 2 for Ex3);
this class exposes that as ``num_layers``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor
from .linear import Identity, LayerNorm, Linear, ReLU, Sequential, Tanh
from .module import Module

__all__ = ["MLP"]

_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh, "none": Identity}


class MLP(Module):
    """``num_layers`` Linear layers with activation and optional LayerNorm.

    Architecture (matching acorn's ``make_mlp``)::

        Linear -> [LayerNorm] -> act -> ... -> Linear [-> LayerNorm -> act]

    Parameters
    ----------
    in_features:
        Input width.
    hidden_features:
        Width of hidden (and, unless ``out_features`` is given, output)
        layers.  The paper uses hidden dimension 64.
    out_features:
        Output width; defaults to ``hidden_features``.
    num_layers:
        Number of Linear layers (≥ 1).
    activation:
        ``"relu"`` (default), ``"tanh"``, or ``"none"``.
    layer_norm:
        Insert LayerNorm after each hidden Linear.
    output_activation:
        Apply norm+activation after the final Linear too (acorn enables
        this for the networks inside the IGNN, but not for scoring heads).
    rng:
        Generator for weight init.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: Optional[int] = None,
        num_layers: int = 2,
        activation: str = "relu",
        layer_norm: bool = True,
        output_activation: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng if rng is not None else np.random.default_rng()
        out_features = hidden_features if out_features is None else out_features
        self.in_features = in_features
        self.out_features = out_features
        act_cls = _ACTIVATIONS[activation]

        layers = []
        width = in_features
        for i in range(num_layers):
            last = i == num_layers - 1
            target = out_features if last else hidden_features
            layers.append(Linear(width, target, rng=rng))
            if (not last) or output_activation:
                if layer_norm:
                    layers.append(LayerNorm(target))
                layers.append(act_cls())
            width = target
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    @property
    def first_layer(self):
        """``(weight, bias, norm)`` of the first layer (``net[0]`` and, when
        they follow it, its LayerNorm → ReLU as ``norm``, else ``None``).

        The fused graph kernels (:func:`repro.tensor.ops.gather_concat_matmul`,
        :func:`repro.tensor.ops.scatter_mlp_input`) absorb this layer into
        the gather/scatter and then continue via :meth:`forward_tail`.
        """
        return self.net[0].weight, self.net[0].bias, self.net.norm_after(0)

    def forward_tail(self, x: Tensor) -> Tensor:
        """Apply everything after :attr:`first_layer` to its output."""
        return self.net.forward_from(x, 1 if self.net.norm_after(0) is None else 3)

    def __repr__(self) -> str:
        return f"MLP({self.in_features} -> {self.out_features}, layers={len(self.net)})"
