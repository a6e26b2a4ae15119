"""Matrix-based bulk ShaDow sampling — Figure 2 and Eq. (1) of the paper.

The sequential sampler (:mod:`repro.sampling.shadow`) pays a Python-level
loop iteration per batch vertex per walk level.  The matrix formulation of
Tripathy et al. replaces the walk with sparse matrix algebra:

1. ``Q^d`` is a ``b × n`` selection matrix with one nonzero per row at each
   batch vertex.  ``P ← Q^d A`` (an SpGEMM) materialises every frontier
   vertex's neighbourhood in one operation; normalising each row of ``P``
   by its sum gives the uniform sampling distribution over neighbours.
2. ``s`` distinct columns are sampled per row of ``P`` (vectorised), and
   ``Q^{d-1}`` is *expanded* to one nonzero per sampled vertex.  All
   vertices touched are accumulated per batch root in a sparse ``F``.
3. After ``d`` levels, the induced subgraph per root is extracted with a
   row-selection SpGEMM ``S A`` over the stacked (root, vertex) selection
   and a column selection restricted to each root's own block — a lookup
   of every candidate ``(root, vertex)`` key.  There are two lookups,
   chosen by whether the dense ``(roots × n)`` id table fits
   (:attr:`BulkShadowSampler.DENSE_LOOKUP_MAX`): the table where it does —
   every benchmark workload — and a binary search of the sorted selection
   keys where it would not (paper-scale CTD at ``k = 4``: 1 024 × 330.7K
   entries).  Both return the same batches, edge order included.

Multiple minibatches are sampled in one shot by stacking their ``Q``
matrices (Eq. 1): the per-SpGEMM fixed costs are amortised over ``k``
batches, which is where the measured speedup comes from.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..graph import EventGraph
from .base import SampledBatch, Sampler

__all__ = ["BulkShadowSampler", "sample_rows_csr"]

# Above this many rows the composite float key "row + U[0,1)" keeps fewer
# than ~30 bits of within-row randomness (float64 spends its mantissa on
# the row index), biasing selection toward CSR order on ties; fall back
# to an exact two-key lexsort there.  Both paths draw the same random
# keys, so results are identical wherever the composite key is exact.
_COMPOSITE_KEY_MAX_ROWS = 1 << 22


def sample_rows_csr(
    P: sp.csr_matrix, fanout: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` distinct nonzero columns from every row of ``P``.

    Vectorised over the whole matrix: draw one random key per stored
    element, sort within rows by key, and keep each row's first ``fanout``
    entries.  Equivalent to uniform sampling without replacement from each
    row's nonzero columns (the row-normalised distribution of Figure 2).

    Returns
    -------
    (rows, cols):
        Parallel arrays of the sampled entries' row and column indices.
    """
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    nnz_per_row = np.diff(P.indptr)
    if P.nnz == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    row_of = np.repeat(np.arange(P.shape[0], dtype=np.int64), nnz_per_row)
    keys = rng.random(P.nnz)
    if P.shape[0] <= _COMPOSITE_KEY_MAX_ROWS:
        # Composite sort key "row + U[0,1)" orders by row, random inside
        # each row — one float argsort instead of a (slower) two-key
        # lexsort.
        order = np.argsort(row_of + keys, kind="stable")
    else:
        # Stacked k·b row counts can grow past the point where the
        # composite key's fraction keeps enough precision; sort the raw
        # keys row-segmented instead.
        order = np.lexsort((keys, row_of))
    # Entries are now grouped by row (group i starts at indptr[i]) with a
    # random permutation inside each group; rank within group:
    rank = np.arange(P.nnz, dtype=np.int64) - np.repeat(P.indptr[:-1], nnz_per_row)
    keep = order[rank < fanout]
    return row_of[keep], P.indices[keep].astype(np.int64)


class BulkShadowSampler(Sampler):
    """Matrix-based bulk ShaDow sampler.

    Produces the same distribution of subgraphs as
    :class:`repro.sampling.shadow.ShadowSampler` (the property tests check
    the structural invariants agree) but performs the walk and the
    extraction as bulk sparse-matrix operations over ``k`` stacked batches.

    Parameters
    ----------
    depth, fanout:
        ShaDow hyper-parameters (paper: d=3, s=6).
    """

    # Largest (stacked roots × vertices) product for which extraction uses
    # the dense compact-id table (int64 → ≤ ~1.6 GB at the cap; typical
    # workloads are far below it).
    DENSE_LOOKUP_MAX = 200_000_000

    _span_fields = ("depth", "fanout")

    def __init__(self, depth: int = 3, fanout: int = 6) -> None:
        if depth < 1 or fanout < 1:
            raise ValueError("depth and fanout must be >= 1")
        self.depth = depth
        self.fanout = fanout

    # ------------------------------------------------------------------
    def sample(
        self, graph: EventGraph, batch: np.ndarray, rng: np.random.Generator
    ) -> SampledBatch:
        """Single-batch convenience wrapper over :meth:`sample_bulk`."""
        return self.sample_bulk(graph, [batch], rng)[0]

    # ------------------------------------------------------------------
    def _sample_bulk(
        self,
        graph: EventGraph,
        batches: Sequence[np.ndarray],
        rng: np.random.Generator,
    ) -> List[SampledBatch]:
        """Sample ``k`` stacked minibatches in one bulk pass (Eq. 1)."""
        batches = [np.asarray(b, dtype=np.int64) for b in batches]
        if not batches or any(b.size == 0 for b in batches):
            raise ValueError("need at least one non-empty batch")
        A = graph.to_csr(symmetric=True)
        n = graph.num_nodes

        roots = np.concatenate(batches)            # stacked batch vertices
        b_tot = roots.shape[0]
        root_ids = np.arange(b_tot, dtype=np.int64)

        # F accumulation: (root, vertex) pairs touched during the walk.
        f_roots = [root_ids]
        f_verts = [roots]

        # Q^d: one nonzero per row at each stacked batch vertex.
        q_vertex = roots.copy()    # column index of each Q row's nonzero
        q_root = root_ids.copy()   # which root each Q row walks for
        for _ in range(self.depth):
            Q = sp.csr_matrix(
                (
                    np.ones(q_vertex.shape[0], dtype=np.float64),
                    (np.arange(q_vertex.shape[0], dtype=np.int64), q_vertex),
                ),
                shape=(q_vertex.shape[0], n),
            )
            P = Q @ A  # the neighbourhood SpGEMM of Figure 2
            s_rows, s_cols = sample_rows_csr(P, self.fanout, rng)
            if s_rows.size == 0:
                break
            f_roots.append(q_root[s_rows])
            f_verts.append(s_cols)
            # expand Q^{l-1}: one nonzero per sampled vertex
            q_root = q_root[s_rows]
            q_vertex = s_cols

        # Deduplicate F per root and sort by (root, vertex): vertex order
        # within each block then matches the sequential sampler's
        # (np.unique-sorted) convention.  Pairs are packed into scalar keys
        # (root * n + vertex) so the dedup is a single flat unique.
        pair_keys = np.concatenate(f_roots) * np.int64(n) + np.concatenate(f_verts)
        uniq_keys = np.unique(pair_keys)
        sel_root = uniq_keys // n
        sel_vertex = uniq_keys % n

        # Extraction: for every root block, the induced subgraph over that
        # block's selected vertices — row-selection SpGEMM R ← S·A, then
        # the in-block column selection, O(Σ deg(selected)).
        K = sel_vertex.shape[0]
        S = sp.csr_matrix(
            (
                np.ones(K, dtype=np.float64),
                (np.arange(K, dtype=np.int64), sel_vertex),
            ),
            shape=(K, n),
        )
        R = (S @ A).tocsr()  # row i = neighbourhood of sel_vertex[i]
        nnz_per_row = np.diff(R.indptr)
        r_row = np.repeat(np.arange(K, dtype=np.int64), nnz_per_row)
        r_col_vertex = R.indices.astype(np.int64)
        cand_keys = sel_root[r_row] * np.int64(n) + r_col_vertex
        # Compact id of each candidate (root, vertex) key, if selected: an
        # O(1) dense table lookup — or, when the (roots × n) table would
        # not fit (paper-scale CTD stacks exceed it), a binary search of
        # the sorted selection keys (≈ 20 % slower per bulk step on the
        # CTD-like ledger graph, so it is not the one lookup).
        if b_tot * n <= self.DENSE_LOOKUP_MAX:
            table = np.full(b_tot * n, -1, dtype=np.int64)
            table[uniq_keys] = np.arange(K, dtype=np.int64)
            cand = table[cand_keys]
            in_block = cand >= 0
        else:
            cand = np.minimum(np.searchsorted(uniq_keys, cand_keys), K - 1)
            in_block = uniq_keys[cand] == cand_keys
        br, bc = r_row[in_block], cand[in_block]
        # Keep only entries matching *directed* parent edges u→v (the
        # symmetric mirror (v, u) is dropped) and recover edge ids.
        # A (u, v) key can match several parent edges (duplicate edges
        # in the event graph); every instance is emitted, matching the
        # sequential sampler.
        parent_keys = graph.rows.astype(np.int64) * n + graph.cols.astype(np.int64)
        key_order = np.argsort(parent_keys, kind="stable")
        sorted_keys = parent_keys[key_order]
        edge_keys = sel_vertex[br] * np.int64(n) + sel_vertex[bc]
        lo_pos = np.searchsorted(sorted_keys, edge_keys, side="left")
        hi_pos = np.searchsorted(sorted_keys, edge_keys, side="right")
        counts = hi_pos - lo_pos  # 0 where (u, v) is not a parent edge
        rep = np.repeat(np.arange(edge_keys.shape[0], dtype=np.int64), counts)
        within = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        edge_parent_all = key_order[lo_pos[rep] + within]
        sub_rows_all, sub_cols_all = br[rep], bc[rep]

        # Global compact id of every root: its position among the sorted
        # (root, vertex) selection keys (each root is guaranteed present in
        # its own block — level 0 of F).
        root_global = np.searchsorted(uniq_keys, root_ids * np.int64(n) + roots)

        # Split back into per-batch results along stacked-root boundaries.
        batch_sizes = np.array([len(b) for b in batches], dtype=np.int64)
        batch_lo = np.concatenate([[0], np.cumsum(batch_sizes)])
        node_splits = np.searchsorted(sel_root, batch_lo)
        edge_batch = np.searchsorted(batch_lo, sel_root[sub_rows_all], side="right") - 1
        edge_order = np.argsort(edge_batch, kind="stable")
        edge_splits = np.searchsorted(edge_batch[edge_order], np.arange(len(batches) + 1))

        results: List[SampledBatch] = []
        for bi, batch in enumerate(batches):
            n_lo, n_hi = node_splits[bi], node_splits[bi + 1]
            e_sel = edge_order[edge_splits[bi] : edge_splits[bi + 1]]
            e_rows = sub_rows_all[e_sel] - n_lo
            e_cols = sub_cols_all[e_sel] - n_lo
            e_parent = edge_parent_all[e_sel]
            nodes_parent = sel_vertex[n_lo:n_hi]
            comp = sel_root[n_lo:n_hi] - batch_lo[bi]

            sub = EventGraph(
                edge_index=np.stack([e_rows, e_cols]),
                x=graph.x[nodes_parent],
                y=graph.y[e_parent],
                edge_labels=None
                if graph.edge_labels is None
                else graph.edge_labels[e_parent],
                event_id=graph.event_id,
            )
            results.append(
                SampledBatch(
                    graph=sub,
                    node_parent=nodes_parent,
                    edge_parent=e_parent,
                    component_ids=comp,
                    roots=root_global[batch_lo[bi] : batch_lo[bi + 1]] - n_lo,
                )
            )
        return results
