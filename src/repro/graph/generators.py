"""Random graph generators for tests and micro-benchmarks.

The detector simulation (:mod:`repro.detector`) produces physically
structured events; these generators produce *unstructured* graphs with
controllable size/degree for exercising the samplers, the components code,
and the memory model in isolation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .graph import EventGraph

__all__ = ["random_graph", "chain_graph", "disjoint_chains", "star_graph"]


def random_graph(
    num_nodes: int,
    num_edges: int,
    num_node_features: int = 6,
    num_edge_features: int = 2,
    rng: Optional[np.random.Generator] = None,
    true_fraction: float = 0.3,
    event_id: int = 0,
) -> EventGraph:
    """Erdős–Rényi-style multigraph-free random event graph.

    Self-loops are excluded and duplicate edges removed, so the returned
    graph may have slightly fewer than ``num_edges`` edges on small inputs.
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = rng if rng is not None else np.random.default_rng()
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    mask = src != dst
    src, dst = src[mask], dst[mask]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    edge_index = np.unique(np.stack([lo, hi]), axis=1)
    m = edge_index.shape[1]
    labels = (rng.random(m) < true_fraction).astype(np.int8)
    return EventGraph(
        edge_index=edge_index,
        x=rng.normal(size=(num_nodes, num_node_features)).astype(np.float32),
        y=rng.normal(size=(m, num_edge_features)).astype(np.float32),
        edge_labels=labels,
        event_id=event_id,
    )


def chain_graph(
    num_nodes: int,
    num_node_features: int = 6,
    num_edge_features: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> EventGraph:
    """Path graph 0-1-2-...-(n-1); all edges labelled true.

    The degenerate "perfect track": useful for testing that components
    recover the full chain and that samplers respect connectivity.
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = rng if rng is not None else np.random.default_rng()
    src = np.arange(num_nodes - 1, dtype=np.int64)
    edge_index = np.stack([src, src + 1])
    m = num_nodes - 1
    return EventGraph(
        edge_index=edge_index,
        x=rng.normal(size=(num_nodes, num_node_features)).astype(np.float32),
        y=rng.normal(size=(m, num_edge_features)).astype(np.float32),
        edge_labels=np.ones(m, dtype=np.int8),
    )


def disjoint_chains(
    num_chains: int,
    chain_length: int,
    num_node_features: int = 6,
    num_edge_features: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> EventGraph:
    """Several disjoint path graphs in one event — an idealised set of tracks.

    Vertex ``c * chain_length + i`` is hit ``i`` of chain ``c``; particle
    ids are ``c + 1`` (0 is reserved for noise).
    """
    if num_chains < 1 or chain_length < 2:
        raise ValueError("need >= 1 chain of length >= 2")
    rng = rng if rng is not None else np.random.default_rng()
    n = num_chains * chain_length
    srcs, dsts = [], []
    for c in range(num_chains):
        base = c * chain_length
        srcs.append(np.arange(base, base + chain_length - 1))
        dsts.append(np.arange(base + 1, base + chain_length))
    edge_index = np.stack([np.concatenate(srcs), np.concatenate(dsts)]).astype(np.int64)
    m = edge_index.shape[1]
    pids = np.repeat(np.arange(1, num_chains + 1, dtype=np.int64), chain_length)
    return EventGraph(
        edge_index=edge_index,
        x=rng.normal(size=(n, num_node_features)).astype(np.float32),
        y=rng.normal(size=(m, num_edge_features)).astype(np.float32),
        edge_labels=np.ones(m, dtype=np.int8),
        particle_ids=pids,
    )


def star_graph(
    num_leaves: int,
    num_node_features: int = 6,
    num_edge_features: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> EventGraph:
    """Hub vertex 0 connected to ``num_leaves`` leaves.

    One vertex of degree n-1: a probe for fanout capping.
    """
    if num_leaves < 1:
        raise ValueError("need >= 1 leaf")
    rng = rng if rng is not None else np.random.default_rng()
    n = num_leaves + 1
    edge_index = np.stack(
        [np.zeros(num_leaves, dtype=np.int64), np.arange(1, n, dtype=np.int64)]
    )
    return EventGraph(
        edge_index=edge_index,
        x=rng.normal(size=(n, num_node_features)).astype(np.float32),
        y=rng.normal(size=(num_leaves, num_edge_features)).astype(np.float32),
        edge_labels=np.ones(num_leaves, dtype=np.int8),
    )
