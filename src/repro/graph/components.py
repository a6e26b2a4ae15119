"""Connected components — the final track-building stage (Stage 5).

After the GNN scores every edge and low-scoring edges are removed, the
remaining connected components *are* the candidate particle tracks.

* :func:`connected_components` — what the pipeline labels events with; it
  delegates to ``scipy.sparse.csgraph``
  (:func:`connected_components_scipy`);
* :class:`UnionFind` — array-based disjoint-set with union by rank and
  path halving, for incremental use (the walkthrough track builder's
  cycle check) and as an independent oracle for the scipy labels in tests.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

__all__ = ["UnionFind", "connected_components", "connected_components_scipy", "components_as_lists"]


class UnionFind:
    """Array-based disjoint-set forest.

    Supports vectorised edge insertion via :meth:`union_edges` so that
    building tracks from millions of surviving edges stays NumPy-speed.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int8)

    def find(self, v: int) -> int:
        """Return the root of ``v``'s set, halving paths along the way."""
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return int(v)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; returns True if they differed."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True

    def union_edges(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Union every edge ``(rows[i], cols[i])``."""
        for a, b in zip(np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)):
            self.union(int(a), int(b))

    def labels(self) -> np.ndarray:
        """Return a canonical component label per element (root indices
        renumbered consecutively from zero in first-seen order)."""
        n = len(self.parent)
        roots = np.empty(n, dtype=np.int64)
        for v in range(n):
            roots[v] = self.find(v)
        _, labels = np.unique(roots, return_inverse=True)
        return labels

    def num_components(self) -> int:
        """Number of disjoint sets."""
        return int(np.sum(self.parent == np.arange(len(self.parent))))


def connected_components(rows: np.ndarray, cols: np.ndarray, num_nodes: int) -> np.ndarray:
    """Component label per vertex for the graph given by edge lists.

    Uses the scipy csgraph BFS-based implementation, which is much faster
    than a Python-loop union-find on large events; :class:`UnionFind`
    remains available for incremental use.
    """
    return connected_components_scipy(rows, cols, num_nodes)


def connected_components_scipy(
    rows: np.ndarray, cols: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Component labels via ``scipy.sparse.csgraph.connected_components``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have equal length")
    adj = sp.coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(num_nodes, num_nodes),
    )
    _, labels = csgraph.connected_components(adj, directed=False)
    return labels.astype(np.int64)


def components_as_lists(labels: np.ndarray, min_size: int = 1) -> List[np.ndarray]:
    """Group vertex indices by component label.

    Parameters
    ----------
    labels:
        ``(n,)`` component label per vertex.
    min_size:
        Drop components smaller than this (track candidates shorter than
        ~3 hits are unusable and discarded by the pipeline).
    """
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    groups = np.split(order, boundaries)
    return [g for g in groups if len(g) >= min_size]
