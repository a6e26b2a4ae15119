"""Fixed-radius nearest-neighbour graph construction (pipeline Stage 2).

The embedding MLP maps each hit into a low-dimensional space where hits of
the same particle cluster; this module connects every pair of embedded hits
within a fixed radius, producing the candidate-edge graph the filter and
GNN stages refine.  Built on :class:`scipy.spatial.cKDTree`, which plays
the role of the GPU FRNN kernel in the original pipeline.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["fixed_radius_graph", "knn_graph"]


def fixed_radius_graph(
    embeddings: np.ndarray,
    radius: float,
    max_neighbors: Optional[int] = None,
    loop: bool = False,
) -> np.ndarray:
    """Connect embedded hits within ``radius``.

    Parameters
    ----------
    embeddings:
        ``(n, d)`` embedded hit coordinates.
    radius:
        Connection radius in the embedding space.
    max_neighbors:
        Optional per-vertex cap: keep only the ``max_neighbors`` nearest
        in-radius neighbours (the GPU FRNN kernels have such a cap; it
        also bounds the edge count on dense events).
    loop:
        Include self-loops (the pipeline never wants them; exposed for
        testing).

    Returns
    -------
    np.ndarray
        ``(2, m)`` directed edge index with ``src < dst`` per pair (each
        undirected neighbour pair appears once).
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2:
        raise ValueError(f"embeddings must be (n, d), got {embeddings.shape}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    n = embeddings.shape[0]
    if n == 0:
        return np.zeros((2, 0), dtype=np.int64)

    tree = cKDTree(embeddings)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")  # (m, 2), i<j
    if pairs.size == 0:
        edge_index = np.zeros((2, 0), dtype=np.int64)
    else:
        edge_index = pairs.T.astype(np.int64)

    if max_neighbors is not None and edge_index.shape[1] > 0:
        edge_index = _cap_neighbors(embeddings, edge_index, max_neighbors)

    if loop:
        loops = np.arange(n, dtype=np.int64)
        edge_index = np.concatenate([edge_index, np.stack([loops, loops])], axis=1)
    return edge_index


def _cap_neighbors(
    embeddings: np.ndarray, edge_index: np.ndarray, max_neighbors: int
) -> np.ndarray:
    """Keep each vertex's ``max_neighbors`` nearest in-radius edges.

    An edge survives only if it ranks within the cap for *both* endpoints,
    mirroring the symmetric pruning of the FRNN GPU kernel.
    """
    if max_neighbors < 1:
        raise ValueError("max_neighbors must be >= 1")
    if np.bincount(edge_index.ravel()).max() <= max_neighbors:
        return edge_index  # no vertex is over the cap: nothing to rank
    src, dst = edge_index
    m = edge_index.shape[1]
    d = np.linalg.norm(embeddings[src] - embeddings[dst], axis=1)
    # Rank every vertex's incident edges (both roles) by distance and drop
    # an edge as soon as it overflows the cap at *either* endpoint, so the
    # surviving undirected degree is at most max_neighbors.
    vertex = np.concatenate([src, dst])
    edge_id = np.tile(np.arange(m, dtype=np.int64), 2)
    dist = np.tile(d, 2)
    order = np.lexsort((dist, vertex))
    ranked_vertex = vertex[order]
    new_block = np.flatnonzero(np.diff(ranked_vertex)) + 1
    starts = np.concatenate([[0], new_block])
    block_of = np.searchsorted(starts, np.arange(len(order)), side="right") - 1
    rank_in_block = np.arange(len(order)) - starts[block_of]
    keep = np.ones(m, dtype=bool)
    keep[edge_id[order[rank_in_block >= max_neighbors]]] = False
    return edge_index[:, keep]


def knn_graph(embeddings: np.ndarray, k: int, loop: bool = False) -> np.ndarray:
    """k-nearest-neighbour candidate graph (alternative to fixed radius).

    Returns a ``(2, m)`` edge index with one undirected edge per neighbour
    pair (deduplicated).
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= 1:
        return np.zeros((2, 0), dtype=np.int64)
    tree = cKDTree(embeddings)
    k_eff = min(k + 1, n)  # +1: the query point itself is its own nearest
    _, idx = tree.query(embeddings, k=k_eff)
    src = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    dst = idx.reshape(-1).astype(np.int64)
    mask = src != dst
    src, dst = src[mask], dst[mask]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    undirected = np.unique(np.stack([lo, hi]), axis=1)
    if loop:
        loops = np.arange(n, dtype=np.int64)
        undirected = np.concatenate([undirected, np.stack([loops, loops])], axis=1)
    return undirected
