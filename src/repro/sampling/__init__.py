"""GNN minibatch samplers.

* :class:`ShadowSampler` — sequential ShaDow (Algorithm 2), the paper's
  "PyG implementation" baseline;
* :class:`BulkShadowSampler` — matrix-based bulk ShaDow (Figure 2,
  Eq. 1), the paper's contribution.

The whole-graph step of full-graph training (``mode="full"``) is the
third regime; it samples nothing and lives with the trainer.
"""

from .base import SampledBatch, Sampler, stack_components
from .shadow import ShadowSampler
from .bulk import BulkShadowSampler, sample_rows_csr
from .batching import epoch_batches, group_batches, iter_vertex_batches

__all__ = [
    "SampledBatch",
    "Sampler",
    "stack_components",
    "ShadowSampler",
    "BulkShadowSampler",
    "sample_rows_csr",
    "iter_vertex_batches",
    "epoch_batches",
    "group_batches",
]
