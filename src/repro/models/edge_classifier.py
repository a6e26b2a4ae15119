"""What the pipeline's two per-edge scorers share.

The stage-3 filter MLP and the stage-4 Interaction GNN both map
``(x, y, rows, cols)`` to one logit per edge; turning those logits into
probabilities for an event graph is the same few lines for both.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module
from ..tensor import Tensor

__all__ = ["EdgeClassifier"]


class EdgeClassifier(Module):
    """A network whose ``forward(x, y, rows, cols)`` returns edge logits;
    ``rows`` / ``cols`` are index arrays or their scatter plans."""

    def logits(self, graph, **forward_kwargs) -> Tensor:
        """``forward`` on an :class:`repro.graph.EventGraph`: the one
        input boundary — ``x`` / ``y`` cast to the parameter dtype and
        wrapped, then the graph's own scatter plans of ``rows`` / ``cols``
        (:attr:`repro.graph.EventGraph.plans`), built once per graph.

        ``graph`` may also be a tuple of graphs, the parts of one disjoint
        union: ``forward`` then gets one tuple per input, an entry per
        part, and returns the parts' logits in order (a network that
        takes parts, as :class:`~repro.models.InteractionGNN` does)."""
        dt = next(self.parameters()).data.dtype
        if isinstance(graph, tuple):
            inputs = zip(*(self._inputs(part, dt) for part in graph))
            return self.forward(*inputs, **forward_kwargs)
        return self.forward(*self._inputs(graph, dt), **forward_kwargs)

    @staticmethod
    def _inputs(graph, dt) -> tuple:
        return (
            Tensor(graph.x.astype(dt, copy=False)),
            Tensor(graph.y.astype(dt, copy=False)),
            *graph.plans,
        )

    def predict_proba(self, graph) -> np.ndarray:
        """Edge probabilities for an :class:`repro.graph.EventGraph`.

        Inference path: evaluation mode and no autograd for the call
        (the prior mode is restored), inputs cast to the parameter dtype.
        """
        with self.inference():
            logits = self.logits(graph)
        return 1.0 / (1.0 + np.exp(-np.clip(logits.numpy(), -60, 60)))
