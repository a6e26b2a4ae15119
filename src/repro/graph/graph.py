"""Event-graph container.

One :class:`EventGraph` per collision event, exactly as in the Exa.TrkX
pipeline: vertices are detector hits (3-D coordinates plus derived
features), edges are candidate track segments, and each edge carries a
binary truth label — 1 if both endpoints were produced by the same
particle on adjacent layers (a true track segment), else 0.

The adjacency is stored in COO form (``edge_index`` of shape ``(2, m)``),
matching Algorithm 1's ``A.rows`` / ``A.cols`` notation; CSR views for
the samplers and the scatter plans of the GNN's aggregation are built
lazily and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..tensor.kernels import ScatterPlan

__all__ = ["EventGraph"]


@dataclass
class EventGraph:
    """A single event's hit graph.

    Parameters
    ----------
    edge_index:
        ``(2, m)`` int array; row 0 holds source vertices (``A.rows``),
        row 1 holds destinations (``A.cols``).
    x:
        ``(n, f_v)`` vertex feature matrix.
    y:
        ``(m, f_e)`` edge feature matrix.
    edge_labels:
        ``(m,)`` binary truth labels (1 = true track segment).
    particle_ids:
        Optional ``(n,)`` truth particle id per hit; 0 marks noise hits.
    event_id:
        Identifier within its dataset.
    """

    edge_index: np.ndarray
    x: np.ndarray
    y: np.ndarray
    edge_labels: Optional[np.ndarray] = None
    particle_ids: Optional[np.ndarray] = None
    event_id: int = 0
    _cache: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.edge_index = np.ascontiguousarray(self.edge_index, dtype=np.int64)
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must be (2, m), got {self.edge_index.shape}")
        self.x = np.ascontiguousarray(self.x, dtype=np.float32)
        if self.x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {self.x.shape}")
        self.y = np.ascontiguousarray(self.y, dtype=np.float32)
        if self.y.shape[0] != self.edge_index.shape[1]:
            raise ValueError(
                f"y has {self.y.shape[0]} rows but graph has "
                f"{self.edge_index.shape[1]} edges"
            )
        if self.edge_labels is not None:
            self.edge_labels = np.ascontiguousarray(self.edge_labels, dtype=np.int8)
            if self.edge_labels.shape[0] != self.num_edges:
                raise ValueError("edge_labels length must equal edge count")
        if self.num_edges and self.edge_index.max() >= self.num_nodes:
            raise ValueError("edge_index refers to vertices beyond x rows")
        if self.num_edges and self.edge_index.min() < 0:
            raise ValueError("edge_index contains negative vertex ids")

    # ------------------------------------------------------------------
    # sizes and feature dims
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]

    @property
    def num_node_features(self) -> int:
        return self.x.shape[1]

    @property
    def num_edge_features(self) -> int:
        return self.y.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """Source vertex per edge (``A.rows`` in Algorithm 1), a view of
        ``edge_index``; the GNN aggregates over it through :attr:`plans`."""
        return self.edge_index[0]

    @property
    def cols(self) -> np.ndarray:
        """Destination vertex per edge (``A.cols`` in Algorithm 1)."""
        return self.edge_index[1]

    @property
    def plans(self) -> Tuple[ScatterPlan, ScatterPlan]:
        """The scatter plans of :attr:`rows` and :attr:`cols` — the
        incidence operators ``REDUCTION(Y, A.rows, +)`` multiplies by —
        built once, on first use, and dropped with the graph."""
        if "plans" not in self._cache:
            self._cache["plans"] = (ScatterPlan(self.rows), ScatterPlan(self.cols))
        return self._cache["plans"]

    # ------------------------------------------------------------------
    # sparse views
    # ------------------------------------------------------------------
    def to_coo(self, symmetric: bool = False) -> sp.coo_matrix:
        """Return the ``n × n`` adjacency in COO form.

        Parameters
        ----------
        symmetric:
            Add reversed edges; the samplers walk the graph as undirected
            (a hit can extend a track in either direction).
        """
        n, m = self.num_nodes, self.num_edges
        rows, cols = self.rows, self.cols
        if symmetric:
            rows = np.concatenate([rows, cols])
            cols = np.concatenate([self.cols, self.rows[: m]])
        data = np.ones(len(rows), dtype=np.float64)
        return sp.coo_matrix((data, (rows, cols)), shape=(n, n))

    def to_csr(self, symmetric: bool = False) -> sp.csr_matrix:
        """Cached CSR adjacency (deduplicated, binary)."""
        key = f"csr_sym={symmetric}"
        if key not in self._cache:
            csr = self.to_coo(symmetric=symmetric).tocsr()
            csr.sum_duplicates()
            csr.data[:] = 1.0
            self._cache[key] = csr
        return self._cache[key]

    def degrees(self, symmetric: bool = True) -> np.ndarray:
        """Vertex degrees (undirected by default).

        Computed from the deduplicated binary adjacency of :meth:`to_csr`
        so duplicate edges count once and a self-loop counts once — the
        samplers walk that adjacency, and degree-based fanout bounds must
        agree with what they actually see.
        """
        return np.asarray(
            np.diff(self.to_csr(symmetric=symmetric).indptr), dtype=np.int64
        )

    # ------------------------------------------------------------------
    # label helpers
    # ------------------------------------------------------------------
    def true_edge_fraction(self) -> float:
        """Fraction of edges labelled as genuine track segments."""
        if self.edge_labels is None:
            raise ValueError("graph has no edge labels")
        if self.num_edges == 0:
            return 0.0
        return float(self.edge_labels.mean())

    def edge_mask_subgraph(self, mask: np.ndarray) -> "EventGraph":
        """Return a copy keeping only edges where ``mask`` is True.

        Vertices are kept in place (no relabelling) — this is how the
        filter stage prunes edges before the GNN, and how track building
        removes edges the GNN classified as fake.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.num_edges:
            raise ValueError("mask length must equal edge count")
        return EventGraph(
            edge_index=self.edge_index[:, mask],
            x=self.x,
            y=self.y[mask],
            edge_labels=None if self.edge_labels is None else self.edge_labels[mask],
            particle_ids=self.particle_ids,
            event_id=self.event_id,
        )

    def __repr__(self) -> str:
        lab = "labelled" if self.edge_labels is not None else "unlabelled"
        return (
            f"EventGraph(id={self.event_id}, n={self.num_nodes}, "
            f"m={self.num_edges}, fv={self.num_node_features}, "
            f"fe={self.num_edge_features}, {lab})"
        )
