"""Gradient flattening for the coalesced all-reduce (Section III-D).

An Interaction GNN holds many separate parameter matrices (every layer's
message and node MLPs, each with several ``f × f`` weights).  Synchronising
them with one all-reduce per matrix pays the latency term α once *per
matrix*; stacking all gradients into a single flat buffer pays it once per
*step*.  These helpers pack/unpack that buffer deterministically, using
the module's parameter traversal order (identical across ranks by
construction).  The buffer has the gradients' own dtype — what crosses
the wire is what the optimiser would have seen, in float32 training and
in the float64 reference mode alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..nn import Module

__all__ = ["FlatSpec", "flatten_arrays", "unflatten_array", "gradient_arrays"]


@dataclass(frozen=True)
class FlatSpec:
    """Layout of one tensor inside a flat buffer."""

    offset: int
    size: int
    shape: Tuple[int, ...]


def flatten_arrays(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[FlatSpec]]:
    """Concatenate arrays into one 1-D buffer plus layout specs.

    The buffer takes the arrays' own (common) dtype, so float32
    gradients travel as float32 and the float64 reference mode is not
    rounded on the way through the coalesced all-reduce.
    """
    specs: List[FlatSpec] = []
    offset = 0
    for a in arrays:
        specs.append(FlatSpec(offset=offset, size=a.size, shape=a.shape))
        offset += a.size
    dtype = np.result_type(*(a.dtype for a in arrays)) if arrays else np.float32
    flat = np.empty(offset, dtype=dtype)
    for a, spec in zip(arrays, specs):
        flat[spec.offset : spec.offset + spec.size] = a.reshape(-1)
    return flat, specs


def unflatten_array(flat: np.ndarray, specs: Sequence[FlatSpec]) -> List[np.ndarray]:
    """Split a flat buffer back into tensors per ``specs``."""
    total = specs[-1].offset + specs[-1].size if specs else 0
    if flat.size != total:
        raise ValueError(f"flat buffer has {flat.size} elements, specs expect {total}")
    return [
        flat[s.offset : s.offset + s.size].reshape(s.shape) for s in specs
    ]


def gradient_arrays(model: Module) -> List[np.ndarray]:
    """Collect parameter gradients in deterministic traversal order.

    Parameters with no gradient contribute zeros (they did not participate
    in this step's subgraph), keeping the flat layout rank-invariant.
    """
    grads = []
    for _, p in model.named_parameters():
        if p.grad is None:
            grads.append(np.zeros_like(p.data))
        else:
            grads.append(p.grad)
    return grads
