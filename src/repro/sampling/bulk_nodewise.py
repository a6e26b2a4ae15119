"""Matrix-based bulk *node-wise* sampling.

Tripathy et al. introduced matrix-based bulk sampling for node-wise and
layer-wise algorithms; the paper's contribution is extending it to ShaDow
(subgraph sampling).  This module provides the node-wise original, so the
repository contains the full family the paper discusses:

* the walk is the same ``Q^{l-1} ← Q^l A`` SpGEMM + row-sampling recursion
  as Figure 2;
* unlike ShaDow, all vertices touched for one *batch* land in a single
  block (node-wise training consumes one subgraph per batch, not one
  component per root), and ``k`` batches are stacked exactly as in Eq. 1.

Output matches :class:`repro.sampling.NodeWiseSampler`'s structure (one
induced subgraph per batch) so trainers can swap samplers freely.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from ..graph import EventGraph
from ..graph.subgraph import induced_subgraph
from .base import SampledBatch, Sampler
from .bulk import sample_rows_csr

__all__ = ["BulkNodeWiseSampler"]


class BulkNodeWiseSampler(Sampler):
    """Bulk node-wise (GraphSAGE-style) sampler.

    Parameters
    ----------
    fanouts:
        Per-layer fanouts, outermost first (as
        :class:`repro.sampling.NodeWiseSampler`).
    """

    def __init__(self, fanouts: List[int]) -> None:
        if not fanouts or any(f < 1 for f in fanouts):
            raise ValueError("fanouts must be a non-empty list of positive ints")
        self.fanouts = list(fanouts)

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
        """Sample ``k`` stacked batches in one fused pass."""
        batches = [np.asarray(b, dtype=np.int64) for b in batches]
        if not batches or any(b.size == 0 for b in batches):
            raise ValueError("need at least one non-empty batch")
        A = graph.to_csr(symmetric=True)
        n = graph.num_nodes

        # frontier rows: one per (batch, vertex); block id = batch index
        q_vertex = np.concatenate(batches)
        q_block = np.repeat(
            np.arange(len(batches), dtype=np.int64),
            [len(b) for b in batches],
        )
        touched_block = [q_block]
        touched_vertex = [q_vertex]
        for fanout in self.fanouts:
            # dedup the frontier per block: node-wise expands the *set* of
            # frontier vertices, unlike ShaDow's per-root replicated walk
            keys = np.unique(q_block * np.int64(n) + q_vertex)
            q_block = keys // n
            q_vertex = keys % n
            Q = sp.csr_matrix(
                (
                    np.ones(q_vertex.shape[0], dtype=np.float64),
                    (np.arange(q_vertex.shape[0], dtype=np.int64), q_vertex),
                ),
                shape=(q_vertex.shape[0], n),
            )
            P = Q @ A  # the Figure-2 neighbourhood SpGEMM
            s_rows, s_cols = sample_rows_csr(P, fanout, rng)
            if s_rows.size == 0:
                break
            q_block = q_block[s_rows]
            q_vertex = s_cols
            touched_block.append(q_block)
            touched_vertex.append(q_vertex)

        all_block = np.concatenate(touched_block)
        all_vertex = np.concatenate(touched_vertex)
        results: List[SampledBatch] = []
        for bi, batch in enumerate(batches):
            nodes = np.unique(all_vertex[all_block == bi])
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
