"""Common sampler types.

A sampler consumes ``(graph, batch_vertices)`` and produces a
:class:`SampledBatch`: a single (typically block-diagonal) subgraph the
IGNN can train on, plus the index maps back into the parent event graph.
For ShaDow the subgraph has one connected block per batch vertex
(Algorithm 2's ``APPEND_COMPONENT``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph import EventGraph
from ..graph.subgraph import InducedSubgraph
from ..obs import get_tracer

__all__ = ["SampledBatch", "Sampler", "stack_components"]


@dataclass
class SampledBatch:
    """One training batch after sampling.

    Attributes
    ----------
    graph:
        The sampled subgraph with compact vertex ids (the ``A_S`` of
        Algorithm 2; block-diagonal across batch vertices for ShaDow).
    node_parent:
        ``(k,)`` parent vertex id per sampled vertex.
    edge_parent:
        ``(m_s,)`` parent edge id per sampled edge (labels/metrics map
        through this).
    component_ids:
        ``(k,)`` which batch vertex's component each sampled vertex
        belongs to (``None`` for the whole-graph step).
    roots:
        ``(b,)`` compact vertex id of each batch vertex within
        ``graph`` (``None`` for the whole-graph step).
    """

    graph: EventGraph
    node_parent: np.ndarray
    edge_parent: np.ndarray
    component_ids: Optional[np.ndarray] = None
    roots: Optional[np.ndarray] = None

    @property
    def num_components(self) -> int:
        if self.component_ids is None:
            return 1
        return int(self.component_ids.max()) + 1 if len(self.component_ids) else 0

    def labels(self) -> np.ndarray:
        """Edge labels of the sampled subgraph (from the parent)."""
        if self.graph.edge_labels is None:
            raise ValueError("sampled graph carries no labels")
        return self.graph.edge_labels


class Sampler:
    """Sampler interface."""

    def sample(
        self,
        graph: EventGraph,
        batch: np.ndarray,
        rng: np.random.Generator,
    ) -> SampledBatch:
        """Sample a training subgraph for the given batch vertices."""
        raise NotImplementedError

    #: Names of the sampler's own hyper-parameters, recorded on the
    #: ``sampler.sample_bulk`` span after ``sampler`` and ``k``.
    _span_fields: Tuple[str, ...] = ()

    def sample_bulk(
        self,
        graph: EventGraph,
        batches: Sequence[np.ndarray],
        rng: np.random.Generator,
    ) -> List[SampledBatch]:
        """Sample several batches: the one ``sampler.sample_bulk`` span
        (with the sampled ``nodes`` / ``edges`` totals) around
        :meth:`_sample_bulk`."""
        with get_tracer().span(
            "sampler.sample_bulk",
            category="sampling",
            sampler=type(self).__name__,
            k=len(batches),
            **{name: getattr(self, name) for name in self._span_fields},
        ) as span:
            results = self._sample_bulk(graph, batches, rng)
            span.set(
                nodes=sum(r.graph.num_nodes for r in results),
                edges=sum(r.graph.num_edges for r in results),
            )
        return results

    def _sample_bulk(
        self,
        graph: EventGraph,
        batches: Sequence[np.ndarray],
        rng: np.random.Generator,
    ) -> List[SampledBatch]:
        """Default: one `sample` call per batch (sequential); bulk
        samplers override this with a single fused sampling step (the
        paper's k-batch stacking, Eq. 1)."""
        return [self.sample(graph, b, rng) for b in batches]


def stack_components(
    parent: EventGraph, subgraphs: Sequence[InducedSubgraph]
) -> SampledBatch:
    """APPEND_COMPONENT of Algorithm 2: block-diagonal stack of per-root
    induced subgraphs into one ``A_S``.

    Vertices of component ``i`` occupy a contiguous id range after those of
    components ``0..i-1``.  A parent vertex appearing in several components
    is *replicated* — exactly the ShaDow semantics, where each root sees
    its own localised copy of the neighbourhood.
    """
    if not subgraphs:
        raise ValueError("cannot stack zero components")
    edge_chunks, x_chunks, y_chunks, label_chunks = [], [], [], []
    node_parent_chunks, edge_parent_chunks, comp_chunks = [], [], []
    offset = 0
    for ci, sub in enumerate(subgraphs):
        g = sub.graph
        edge_chunks.append(g.edge_index + offset)
        x_chunks.append(g.x)
        y_chunks.append(g.y)
        if g.edge_labels is not None:
            label_chunks.append(g.edge_labels)
        node_parent_chunks.append(sub.node_index)
        edge_parent_chunks.append(sub.edge_index_parent)
        comp_chunks.append(np.full(g.num_nodes, ci, dtype=np.int64))
        offset += g.num_nodes

    labels = np.concatenate(label_chunks) if label_chunks else None
    stacked = EventGraph(
        edge_index=np.concatenate(edge_chunks, axis=1)
        if edge_chunks
        else np.zeros((2, 0), dtype=np.int64),
        x=np.concatenate(x_chunks, axis=0),
        y=np.concatenate(y_chunks, axis=0),
        edge_labels=labels,
        event_id=parent.event_id,
    )
    return SampledBatch(
        graph=stacked,
        node_parent=np.concatenate(node_parent_chunks),
        edge_parent=np.concatenate(edge_parent_chunks),
        component_ids=np.concatenate(comp_chunks),
    )
