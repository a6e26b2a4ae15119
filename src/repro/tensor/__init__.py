"""NumPy-backed reverse-mode autograd engine (the PyTorch substitute).

Public surface::

    from repro.tensor import Tensor, no_grad, ops

``Tensor`` provides operator sugar (``+``, ``@``, ``.relu()``, ...); the
full op set — including the graph primitives ``gather_rows`` and
``segment_sum`` used by the Interaction GNN, and their fused variants
``gather_concat_matmul`` / ``scatter_mlp_input`` — lives in
:mod:`repro.tensor.ops`, with the underlying sparse scatter kernels in
:mod:`repro.tensor.kernels`.
"""

from .tensor import (
    DEFAULT_DTYPE,
    Tensor,
    asarray,
    astensor,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    unbroadcast,
)
from . import kernels, ops
from .gradcheck import gradcheck

__all__ = [
    "DEFAULT_DTYPE",
    "Tensor",
    "asarray",
    "astensor",
    "is_grad_enabled",
    "no_grad",
    "unbroadcast",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "ops",
    "kernels",
    "gradcheck",
]
