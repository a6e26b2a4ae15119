"""1-D vertex-partitioned IGNN forward: exactness and halo accounting."""

import numpy as np
import pytest

from repro.distributed import NVLINK_A100, PartitionedIGNNForward, VertexPartition
from repro.graph import chain_graph, random_graph
from repro.models import IGNNConfig, InteractionGNN
from repro.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def setup():
    g = random_graph(120, 500, rng=np.random.default_rng(0))
    model = InteractionGNN(
        IGNNConfig(node_features=6, edge_features=2, hidden=8, num_layers=2, seed=1)
    )
    with no_grad():
        ref = model(Tensor(g.x), Tensor(g.y), g.rows, g.cols).numpy()
    return g, model, ref


class TestPartition:
    def test_balanced_cuts(self):
        part = VertexPartition.balanced(10, 3)
        assert part.cuts[0] == 0 and part.cuts[-1] == 10
        assert part.world_size == 3

    def test_owner_of(self):
        part = VertexPartition.balanced(10, 2)
        owners = part.owner_of(np.array([0, 4, 5, 9]))
        assert owners.tolist() == [0, 0, 1, 1]

    def test_invalid_world(self):
        with pytest.raises(ValueError):
            VertexPartition.balanced(10, 0)


class TestPartitionedForward:
    @pytest.mark.parametrize("world", [1, 2, 3, 4])
    def test_matches_single_rank_forward(self, setup, world):
        g, model, ref = setup
        dist = PartitionedIGNNForward(model, VertexPartition.balanced(g.num_nodes, world))
        out = dist.forward(g)
        assert np.allclose(out, ref, atol=1e-4)

    def test_single_rank_no_communication(self, setup):
        g, model, _ = setup
        dist = PartitionedIGNNForward(model, VertexPartition.balanced(g.num_nodes, 1))
        dist.forward(g)
        assert dist.stats.halo_rows_pulled == 0
        assert dist.stats.bytes_total == 0

    def test_halo_grows_with_rank_count(self, setup):
        g, model, _ = setup
        volumes = []
        for world in (2, 4, 8):
            dist = PartitionedIGNNForward(model, VertexPartition.balanced(g.num_nodes, world))
            dist.forward(g)
            volumes.append(dist.stats.bytes_total)
        assert volumes[0] < volumes[-1]

    def test_halo_exchange_outprices_one_gradient_sync(self, setup):
        """One partitioned forward's halo traffic costs more (α–β) than the
        single coalesced gradient all-reduce of a minibatch step."""
        g, model, _ = setup
        grad_bytes = sum(p.size * 4 for p in model.parameters())
        for world in (2, 4, 8):
            dist = PartitionedIGNNForward(model, VertexPartition.balanced(g.num_nodes, world))
            dist.forward(g)
            halo = dist.stats.modeled_seconds(world)
            assert halo > NVLINK_A100.allreduce_time(grad_bytes, world), world

    def test_chain_graph_minimal_halo(self):
        """A chain partitioned into blocks has exactly one cut edge per
        boundary — the halo must be correspondingly tiny."""
        g = chain_graph(100)
        model = InteractionGNN(
            IGNNConfig(node_features=6, edge_features=2, hidden=4, num_layers=1, seed=0)
        )
        dist = PartitionedIGNNForward(model, VertexPartition.balanced(100, 2))
        dist.forward(g)
        # one boundary vertex pulled and one partial pushed per layer
        assert dist.stats.halo_rows_pulled <= 2

    def test_modeled_seconds_positive_for_multirank(self, setup):
        g, model, _ = setup
        dist = PartitionedIGNNForward(model, VertexPartition.balanced(g.num_nodes, 4))
        dist.forward(g)
        assert dist.stats.modeled_seconds(4) > 0.0
        assert dist.stats.modeled_seconds(1) == 0.0
