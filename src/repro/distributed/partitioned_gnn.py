"""1-D vertex-partitioned full-graph message passing.

The paper's group (CAGNET) scales *full-graph* GNN work by partitioning
the adjacency across ranks; the minibatch pipeline of this paper is the
alternative.  This module implements the 1-D scheme for the Interaction
GNN so the repository can quantify the comparison:

* vertices are block-partitioned: rank ``r`` owns rows
  ``[cuts[r], cuts[r+1])`` of ``X`` and every edge whose *source* vertex
  it owns;
* the message step needs ``X[cols]`` for destination endpoints that live
  on other ranks — the **halo exchange**: each rank requests the remote
  rows its edges touch, and the per-rank sent bytes are accounted;
* the aggregation of ``M_dst`` (messages grouped by destination) produces
  partial sums for remote vertices, which are pushed back to their owners
  — the reverse halo.

The forward result is bit-comparable to the single-rank IGNN (the tests
check exact agreement), and :class:`HaloStats` feeds the α–β model to
price a full-graph distributed epoch against the minibatch pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..graph import EventGraph
from ..models import InteractionGNN
from ..tensor import Tensor, no_grad, ops
from ..tensor.kernels import scatter_add_rows
from .costmodel import CommCostModel, NVLINK_A100
from .ring import chunk_bounds

__all__ = ["HaloStats", "VertexPartition", "PartitionedIGNNForward"]


@dataclass
class HaloStats:
    """Communication accounting of one partitioned forward pass."""

    halo_rows_pulled: int = 0      # remote X rows fetched (gather side)
    partial_rows_pushed: int = 0   # remote partial aggregates returned
    bytes_total: int = 0
    exchanges: int = 0

    def modeled_seconds(
        self, world_size: int, model: CommCostModel = NVLINK_A100
    ) -> float:
        """Price the halo traffic as `exchanges` collectives of the mean
        size (all-to-all ≈ all-reduce of equal volume in the α–β model)."""
        if self.exchanges == 0 or world_size <= 1:
            return 0.0
        per = self.bytes_total / self.exchanges
        return sum(
            model.allreduce_time(int(per), world_size) for _ in range(self.exchanges)
        )


@dataclass(frozen=True)
class VertexPartition:
    """Block partition of a graph's vertices across ``world_size`` ranks."""

    cuts: Tuple[int, ...]  # length world_size + 1, cuts[0]=0, cuts[-1]=n

    @staticmethod
    def balanced(num_nodes: int, world_size: int) -> "VertexPartition":
        """Equal-sized contiguous blocks (±1)."""
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        return VertexPartition(cuts=tuple(chunk_bounds(num_nodes, world_size).tolist()))

    @property
    def world_size(self) -> int:
        return len(self.cuts) - 1

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Owning rank per vertex id."""
        return np.searchsorted(np.asarray(self.cuts[1:]), vertices, side="right")

    def rows_of(self, rank: int) -> Tuple[int, int]:
        return self.cuts[rank], self.cuts[rank + 1]


class PartitionedIGNNForward:
    """Run an IGNN forward pass under 1-D vertex partitioning.

    The computation is executed rank by rank in-process (as with the DDP
    simulation) with explicit halo gathers/pushes, so the communication
    *volume* is the real one while the wall-clock is serial.

    Parameters
    ----------
    model:
        A (trained) :class:`repro.models.InteractionGNN`.
    partition:
        Vertex ownership.
    """

    def __init__(self, model: InteractionGNN, partition: VertexPartition) -> None:
        self.model = model
        self.partition = partition
        self.stats = HaloStats()

    # ------------------------------------------------------------------
    def forward(self, graph: EventGraph) -> np.ndarray:
        """Distributed inference: returns the ``(m,)`` edge logits.

        Edges are owned by the rank owning their source vertex; logits are
        assembled in the parent edge order.
        """
        model = self.model
        part = self.partition
        world = part.world_size
        n = graph.num_nodes
        rows, cols = graph.rows, graph.cols
        owner_edge = part.owner_of(rows)

        with no_grad():
            # encoders are pointwise: each rank encodes its own rows; we
            # evaluate them once globally (identical math).
            x_state = model.node_encoder(Tensor(graph.x)).numpy()
            y_state = model.edge_encoder(Tensor(graph.y)).numpy()
            x0, y0 = x_state.copy(), y_state.copy()

            for l in range(model.config.num_layers):
                layer = getattr(model, f"layer{l}")
                x_res = np.concatenate([x_state, x0], axis=1)
                y_res = np.concatenate([y_state, y0], axis=1)

                new_y = np.empty((graph.num_edges, model.config.hidden), dtype=np.float32)
                m_src = np.zeros((n, model.config.hidden), dtype=np.float32)
                m_dst = np.zeros((n, model.config.hidden), dtype=np.float32)

                for rank in range(world):
                    mask = owner_edge == rank
                    if not mask.any():
                        continue
                    e_rows = rows[mask]
                    e_cols = cols[mask]
                    lo, hi = part.rows_of(rank)

                    # --- halo gather: destination rows on other ranks
                    remote = np.unique(e_cols[(e_cols < lo) | (e_cols >= hi)])
                    self.stats.halo_rows_pulled += int(remote.size)
                    self.stats.bytes_total += int(remote.size) * x_res.shape[1] * 4
                    self.stats.exchanges += 1

                    msg_in = np.concatenate(
                        [y_res[mask], x_res[e_rows], x_res[e_cols]], axis=1
                    )
                    msg = layer.edge_mlp(Tensor(msg_in)).numpy()
                    new_y[mask] = msg

                    # local source aggregation (sources are owned)
                    scatter_add_rows(msg, e_rows, n, out=m_src, accumulate=True)
                    # destination aggregation produces partial sums for
                    # remote vertices → reverse halo push
                    scatter_add_rows(msg, e_cols, n, out=m_dst, accumulate=True)
                    remote_partials = np.unique(e_cols[(e_cols < lo) | (e_cols >= hi)])
                    self.stats.partial_rows_pushed += int(remote_partials.size)
                    self.stats.bytes_total += (
                        int(remote_partials.size) * model.config.hidden * 4
                    )
                    self.stats.exchanges += 1

                upd_in = np.concatenate([m_src, m_dst, x_res], axis=1)
                # vertex update is row-wise: each rank updates its block
                x_state = layer.node_mlp(Tensor(upd_in)).numpy()
                y_state = new_y

            logits = model.output_mlp(Tensor(y_state)).numpy().reshape(-1)
        return logits
