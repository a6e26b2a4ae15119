"""Module/parameter system for the reproduction's neural networks.

Mirrors the small subset of ``torch.nn.Module`` semantics the pipeline
relies on: named parameter traversal (for the optimiser and for the DDP
gradient synchronisation), train/eval mode, and state-dict round-trips
(used to checkpoint pipeline stages between training phases).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

import numpy as np

from ..tensor import Tensor, no_grad

__all__ = ["Module", "Parameter"]


class Parameter(Tensor):
    """A tensor registered as a trainable weight of a :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all networks.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; assignment auto-registers them so that
    :meth:`named_parameters` discovers the full tree in deterministic
    (insertion) order.  Deterministic ordering matters for the coalesced
    all-reduce (Section III-D of the paper): every DDP rank must flatten
    parameters in the same order.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (for list-style children)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` over the module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of the module tree."""
        for _, p in self.named_parameters():
            yield p

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar weights."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # mode and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    @contextmanager
    def inference(self) -> Iterator[None]:
        """Evaluation mode without autograd for the ``with`` body, restored on
        exit even if it raises; an eval-mode root is never written (threads share it)."""
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                yield
        finally:
            if was_training:
                self.train(True)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place (grads are cleared).

        The pipeline's ``precision`` flag uses this to flip a freshly
        built model into the float64 reference mode (or back); parameter
        identity is preserved, so optimisers must be created *after* the
        cast (their moment buffers adopt the parameter dtype).
        """
        dt = np.dtype(dtype)
        if not np.issubdtype(dt, np.floating):
            raise ValueError(f"astype requires a float dtype, got {dt}")
        for p in self.parameters():
            p.data = p.data.astype(dt, copy=False)
            p.grad = None
        return self

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat copy of all parameter arrays keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        Raises
        ------
        KeyError
            If a parameter is missing from ``state``.
        ValueError
            On any shape mismatch.
        """
        for name, p in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"checkpoint {arr.shape} vs model {p.data.shape}"
                )
            p.data[...] = arr

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_reprs = ", ".join(self._modules.keys())
        return f"{type(self).__name__}({child_reprs})"
