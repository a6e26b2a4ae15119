"""Matrix-based bulk *layer-wise* (LADIES) sampling.

Completes the matrix-based family (Tripathy et al. cover node-wise and
layer-wise; the paper adds ShaDow).  Layer-wise sampling is naturally a
matrix algorithm: the importance distribution of candidate vertices for
the next layer is the column-sum of the adjacency rows of the current
layer — i.e. the row of ``q A`` where ``q`` is the layer's indicator
vector.  Stacking the ``k`` batches' indicator vectors gives a ``k × n``
``Q`` whose single SpGEMM ``Q·A`` yields every batch's distribution at
once.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from ..graph import EventGraph
from ..graph.subgraph import induced_subgraph
from .base import SampledBatch, Sampler

__all__ = ["BulkLayerWiseSampler"]


class BulkLayerWiseSampler(Sampler):
    """Bulk LADIES-style sampler.

    Parameters
    ----------
    layer_size:
        Vertices drawn per layer per batch.
    num_layers:
        Sampled layers (network depth).
    """

    def __init__(self, layer_size: int, num_layers: int) -> None:
        if layer_size < 1 or num_layers < 1:
            raise ValueError("layer_size and num_layers must be >= 1")
        self.layer_size = layer_size
        self.num_layers = num_layers

    # ------------------------------------------------------------------
    def sample(
        self, graph: EventGraph, batch: np.ndarray, rng: np.random.Generator
    ) -> SampledBatch:
        return self.sample_bulk(graph, [batch], rng)[0]

    def _sample_bulk(
        self,
        graph: EventGraph,
        batches: Sequence[np.ndarray],
        rng: np.random.Generator,
    ) -> List[SampledBatch]:
        """Sample ``k`` stacked batches with one SpGEMM per layer."""
        batches = [np.asarray(b, dtype=np.int64) for b in batches]
        if not batches or any(b.size == 0 for b in batches):
            raise ValueError("need at least one non-empty batch")
        A = graph.to_csr(symmetric=True)
        n = graph.num_nodes
        k = len(batches)

        touched = [set(b.tolist()) for b in batches]
        current = [b.copy() for b in batches]
        for _ in range(self.num_layers):
            # stacked indicator matrix: row i = current layer of batch i
            rows, cols = [], []
            for i, layer in enumerate(current):
                rows.append(np.full(layer.shape[0], i, dtype=np.int64))
                cols.append(layer)
            Q = sp.csr_matrix(
                (
                    np.ones(sum(len(c) for c in cols), dtype=np.float64),
                    (np.concatenate(rows), np.concatenate(cols)),
                ),
                shape=(k, n),
            )
            P = (Q @ A).tocsr()  # row i = importance weights of batch i
            next_layers: List[np.ndarray] = []
            for i in range(k):
                start, end = P.indptr[i], P.indptr[i + 1]
                cand = P.indices[start:end].astype(np.int64)
                weights = P.data[start:end].astype(np.float64)
                # avoid re-drawing the current layer
                mask = ~np.isin(cand, current[i])
                cand, weights = cand[mask], weights[mask]
                if cand.size == 0:
                    next_layers.append(np.zeros(0, dtype=np.int64))
                    continue
                probs = weights / weights.sum()
                take = min(self.layer_size, cand.size)
                chosen = rng.choice(cand, size=take, replace=False, p=probs)
                next_layers.append(np.asarray(chosen, dtype=np.int64))
                touched[i].update(int(v) for v in chosen)
            current = next_layers

        results: List[SampledBatch] = []
        for i, batch in enumerate(batches):
            nodes = np.fromiter(sorted(touched[i]), dtype=np.int64)
            sub = induced_subgraph(graph, nodes)
            results.append(
                SampledBatch(
                    graph=sub.graph,
                    node_parent=sub.node_index,
                    edge_parent=sub.edge_index_parent,
                    component_ids=None,
                    roots=np.searchsorted(sub.node_index, batch),
                )
            )
        return results
