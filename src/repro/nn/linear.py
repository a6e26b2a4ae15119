"""Dense layers: Linear, LayerNorm, and Sequential containers."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..tensor import Tensor, ops
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "LayerNorm", "Sequential", "ReLU", "Tanh", "Identity", "Dropout"]


class Linear(Module):
    """Affine map ``x @ W + b`` with ``W`` of shape ``(in, out)``.

    Parameters
    ----------
    in_features, out_features:
        Input / output widths.
    bias:
        Include an additive bias vector.
    rng:
        Generator used for the Kaiming-uniform weight init; a fresh default
        generator is used if omitted (tests always pass one explicitly).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear features must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features), rng))
        if bias:
            self.bias = Parameter(init.zeros((out_features,)))
        else:
            object.__setattr__(self, "bias", None)

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class LayerNorm(Module):
    """Layer normalisation over the feature axis with learned scale/shift."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.eps = eps
        self.weight = Parameter(np.ones(features, dtype=np.float32))
        self.bias = Parameter(np.zeros(features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def __repr__(self) -> str:
        return f"LayerNorm({self.features})"


class ReLU(Module):
    """Stateless ReLU activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class Tanh(Module):
    """Stateless tanh activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.tanh(x)


class Identity(Module):
    """Pass-through module (placeholder in configurable stacks)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.p, self.rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Chain of modules applied in order (one MLP layer = ONE autograd op).
    A ``Linear → LayerNorm → ReLU`` run, a layer of Algorithm 1, is that op."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers = []
        for i, layer in enumerate(layers):
            self.register_module(str(i), layer)
            self._layers.append(layer)

    def norm_after(self, i: int):
        """``(gamma, beta, eps)`` when layers ``i, i+1, i+2`` are exactly
        ``Linear → LayerNorm → ReLU`` — what the op computing layer ``i``
        takes as ``norm`` to absorb the other two — else ``None``."""
        run = self._layers[i : i + 3]
        if [type(layer) for layer in run] != [Linear, LayerNorm, ReLU]:
            return None
        return run[1].weight, run[1].bias, run[1].eps

    def forward(self, x: Tensor) -> Tensor:
        return self.forward_from(x, 0)

    def forward_from(self, x: Tensor, start: int) -> Tensor:
        """Apply layers ``start``, ``start+1``, ... to ``x``.

        The entry point of the fused IGNN kernels: they compute the first
        layer themselves (fused with the gather/scatter) and hand the
        result to the rest of the stack.
        """
        i = start
        while i < len(self._layers):
            layer, norm = self._layers[i], self.norm_after(i)
            if norm is None:
                x = layer(x)
                i += 1
            else:  # layers i+1 and i+2 run inside the op
                x = ops.linear(x, layer.weight, layer.bias, norm)
                i += 3
        return x

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, i: int) -> Module:
        return self._layers[i]
