"""GNN-stage trainers: all three regimes, DDP, skipping, convergence shape."""

import numpy as np
import pytest

from repro.memory import ActivationMemoryModel
from repro.models import IGNNConfig, InteractionGNN
from repro.nn import Adam, BCEWithLogitsLoss
from repro.pipeline import GNNTrainConfig, derive_pos_weight, train_gnn
from repro.pipeline.trainers import _Rank


SMALL = dict(epochs=2, batch_size=32, hidden=8, num_layers=2, mlp_layers=2, depth=2, fanout=3, seed=0)


@pytest.fixture(scope="module")
def splits(tiny_dataset):
    return tiny_dataset.train, tiny_dataset.val


class TestConfig:
    def test_paper_defaults(self):
        """Section IV-A: batch 256, hidden 64, 30 epochs, 8 layers, d=3, s=6."""
        cfg = GNNTrainConfig()
        assert cfg.batch_size == 256
        assert cfg.hidden == 64
        assert cfg.epochs == 30
        assert cfg.num_layers == 8
        assert cfg.depth == 3
        assert cfg.fanout == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            GNNTrainConfig(mode="nope")
        # only the paper's three regimes: no node-wise or SAINT training
        for retired in ("nodewise", "saint"):
            with pytest.raises(ValueError, match="unknown mode"):
                GNNTrainConfig(mode=retired)
        with pytest.raises(ValueError):
            GNNTrainConfig(allreduce="tree")
        with pytest.raises(ValueError):
            GNNTrainConfig(batch_size=10, world_size=3)
        with pytest.raises(ValueError):
            GNNTrainConfig(bulk_k=0)

    def test_replace(self):
        cfg = GNNTrainConfig().replace(epochs=5)
        assert cfg.epochs == 5 and cfg.batch_size == 256


class TestDerivePosWeight:
    def test_balance_formula(self, splits):
        train, _ = splits
        pos = sum(int(g.edge_labels.sum()) for g in train)
        neg = sum(g.num_edges for g in train) - pos
        assert derive_pos_weight(train) == pytest.approx(max(neg / pos, 1.0))

    def test_floor_at_one(self, chains_graph):
        assert derive_pos_weight([chains_graph]) == 1.0  # all edges positive


class TestRegimes:
    @pytest.mark.parametrize(
        "mode,extra",
        [
            ("full", {}),
            ("shadow", {}),
            ("bulk", {"bulk_k": 2}),
        ],
    )
    def test_trains_and_records_history(self, splits, mode, extra):
        train, val = splits
        res = train_gnn(train, val, GNNTrainConfig(mode=mode, **SMALL, **extra))
        assert len(res.history) == SMALL["epochs"]
        final = res.history.final
        assert np.isfinite(final.train_loss)
        assert 0.0 <= final.val_precision <= 1.0
        assert 0.0 <= final.val_recall <= 1.0
        assert res.trained_steps > 0

    def test_loss_decreases_over_epochs(self, splits):
        train, val = splits
        res = train_gnn(
            train, val, GNNTrainConfig(mode="bulk", **{**SMALL, "epochs": 4})
        )
        losses = res.history.series("train_loss")
        assert losses[-1] < losses[0]

    def test_minibatch_records_sampling_time(self, splits):
        train, val = splits
        res = train_gnn(train, val, GNNTrainConfig(mode="shadow", **SMALL))
        assert res.stage_seconds["sampling"] > 0
        assert res.stage_seconds["training"] > 0

    def test_stage_seconds_are_the_records_summed(self, splits):
        """Over whole epochs each phase's total is its records' sum."""
        train, val = splits
        res = train_gnn(train, val, GNNTrainConfig(mode="shadow", **SMALL))
        assert set(res.stage_seconds) == {"epoch", "sampling", "training"}
        for phase in res.stage_seconds:
            summed = sum(getattr(r, f"{phase}_seconds") for r in res.history.records)
            assert res.stage_seconds[phase] == pytest.approx(summed, abs=1e-9), phase

    def test_stage_seconds_count_a_final_partial_epoch(self, splits):
        """A run stopped mid-epoch records no epoch for its last steps,
        but their training time is in the totals."""
        train, val = splits
        one = train_gnn(train, val, GNNTrainConfig(mode="shadow", **{**SMALL, "epochs": 1}))
        cfg = GNNTrainConfig(mode="shadow", **SMALL, max_steps=one.trained_steps + 1)
        res = train_gnn(train, val, cfg)
        assert len(res.history) == 1 and res.trained_steps == one.trained_steps + 1
        recorded = sum(r.training_seconds for r in res.history.records)
        assert res.stage_seconds["training"] > recorded

    @pytest.mark.parametrize(
        "mode,extra", [("full", {}), ("shadow", {}), ("bulk", {"bulk_k": 1})]
    )
    def test_max_steps_is_honoured_in_every_mode(self, splits, mode, extra):
        """One loop: the step budget stops full-graph training too, not
        only the minibatch regimes (3 epochs here would be 12+ steps)."""
        train, val = splits
        cfg = GNNTrainConfig(mode=mode, **{**SMALL, "epochs": 3}, max_steps=5, **extra)
        res = train_gnn(train, val, cfg)
        assert res.trained_steps == 5

    def test_full_mode_records_the_same_phases_as_minibatch(self, splits):
        train, val = splits
        res = train_gnn(train, val, GNNTrainConfig(mode="full", **SMALL))
        assert res.stage_seconds["sampling"] > 0
        assert all(r.sampling_seconds > 0 for r in res.history.records)
        assert res.comm_stats.num_allreduce_calls == res.trained_steps

    def test_full_mode_rejects_multirank(self, splits):
        train, val = splits
        with pytest.raises(ValueError):
            train_gnn(train, val, GNNTrainConfig(mode="full", world_size=2, **{k: v for k, v in SMALL.items() if k != "seed"}))

    def test_unlabelled_graphs_rejected(self, splits):
        train, val = splits
        bad = train[0].edge_mask_subgraph(np.ones(train[0].num_edges, dtype=bool))
        bad.edge_labels = None
        with pytest.raises(ValueError):
            train_gnn([bad], val, GNNTrainConfig(**SMALL))

    def test_empty_training_set_rejected(self, splits):
        _, val = splits
        with pytest.raises(ValueError):
            train_gnn([], val, GNNTrainConfig(**SMALL))


class TestRankLocalStep:
    def test_bare_rank_reproduces_the_drivers_first_step(self, splits):
        """The rank-local half of a step needs nothing but (model,
        optimizer, graph, loss_fn): run on a bare replica — no
        communicator, loader, history or timer — it yields the gradients
        the driver's first step computed."""
        train, val = splits
        cfg = GNNTrainConfig(mode="full", max_steps=1, **SMALL)
        driven = train_gnn(train, val, cfg).model  # grads survive optimizer.step()

        first = train[np.random.default_rng(cfg.seed).permutation(len(train))[0]]
        model = InteractionGNN(
            IGNNConfig(
                node_features=first.num_node_features,
                edge_features=first.num_edge_features,
                hidden=cfg.hidden,
                num_layers=cfg.num_layers,
                mlp_layers=cfg.mlp_layers,
                seed=cfg.seed,
            )
        )
        rank = _Rank(0, model, Adam(model.parameters(), lr=cfg.lr))
        loss = rank.step(first, BCEWithLogitsLoss(pos_weight=derive_pos_weight(train)))
        assert np.isfinite(loss)
        for (name, bare), (_, ref) in zip(
            model.named_parameters(), driven.named_parameters()
        ):
            # a parameter outside the graph has no grad on the bare rank
            # and a zero one after the driver's all-reduce
            expected = np.zeros_like(ref.grad) if bare.grad is None else bare.grad
            assert np.array_equal(expected, ref.grad), name

    def test_recompute_variant_matches_plain_backward(self, splits):
        train, _ = splits
        loss_fn = BCEWithLogitsLoss(pos_weight=2.0)

        def grads(recompute):
            model = InteractionGNN(
                IGNNConfig(
                    node_features=train[0].num_node_features,
                    edge_features=train[0].num_edge_features,
                    hidden=8,
                    num_layers=2,
                )
            )
            rank = _Rank(0, model, Adam(model.parameters(), lr=1e-3))
            loss = rank.step(train[0], loss_fn, recompute=recompute)
            return loss, [p.grad for p in model.parameters()]

        loss_a, grads_a = grads(False)
        loss_b, grads_b = grads(True)
        assert loss_a == pytest.approx(loss_b, rel=1e-5)
        for a, b in zip(grads_a, grads_b):
            if a is not None:
                assert np.allclose(a, b, atol=1e-5)


class TestMemorySkipping:
    def test_capacity_skips_large_graphs(self, splits):
        """Section III-B: graphs exceeding the activation budget are
        skipped, reducing trained steps."""
        train, val = splits
        cfg_all = GNNTrainConfig(mode="full", **SMALL)
        res_all = train_gnn(train, val, cfg_all)

        # capacity below the largest graph's footprint
        ignn = IGNNConfig(
            node_features=train[0].num_node_features,
            edge_features=train[0].num_edge_features,
            hidden=SMALL["hidden"],
            num_layers=SMALL["num_layers"],
        )
        mem = ActivationMemoryModel(ignn)
        footprints = [mem.total_bytes(g.num_nodes, g.num_edges) for g in train]
        cap = int(np.median(footprints))
        res_capped = train_gnn(train, val, cfg_all.replace(capacity_bytes=cap))
        assert res_capped.skipped_graphs > 0
        assert res_capped.trained_steps < res_all.trained_steps

    def test_zero_capacity_skips_everything(self, splits):
        train, val = splits
        res = train_gnn(train, val, GNNTrainConfig(mode="full", capacity_bytes=1, **SMALL))
        assert res.trained_steps == 0
        assert res.skipped_graphs == len(train) * SMALL["epochs"]


class TestDDP:
    def test_multirank_matches_singlerank_steps(self, splits):
        train, val = splits
        res1 = train_gnn(train, val, GNNTrainConfig(mode="bulk", bulk_k=2, **SMALL))
        res2 = train_gnn(
            train, val, GNNTrainConfig(mode="bulk", bulk_k=2, world_size=2, **SMALL)
        )
        assert res1.trained_steps == res2.trained_steps

    def test_coalesced_fewer_allreduce_calls(self, splits):
        train, val = splits
        res_pp = train_gnn(
            train,
            val,
            GNNTrainConfig(mode="shadow", world_size=2, allreduce="per_parameter", **SMALL),
        )
        res_co = train_gnn(
            train,
            val,
            GNNTrainConfig(mode="shadow", world_size=2, allreduce="coalesced", **SMALL),
        )
        assert res_co.comm_stats.num_allreduce_calls < res_pp.comm_stats.num_allreduce_calls
        assert res_co.comm_stats.modeled_seconds < res_pp.comm_stats.modeled_seconds

    def test_world1_has_zero_comm_time(self, splits):
        train, val = splits
        res = train_gnn(train, val, GNNTrainConfig(mode="shadow", **SMALL))
        assert res.comm_stats.modeled_seconds == 0.0


@pytest.mark.slow
class TestConvergenceShape:
    def test_minibatch_beats_fullgraph(self, tiny_dataset):
        """The Figure-4 headline: ShaDow minibatch converges to better
        validation F1 than full-graph training under an equal epoch
        budget."""
        train, val = tiny_dataset.train, tiny_dataset.val
        common = dict(epochs=6, hidden=16, num_layers=2, mlp_layers=2, seed=1)
        full = train_gnn(train, val, GNNTrainConfig(mode="full", **common))
        mini = train_gnn(
            train,
            val,
            GNNTrainConfig(mode="bulk", batch_size=64, depth=2, fanout=4, bulk_k=4, **common),
        )
        assert mini.history.final.val_f1 > full.history.final.val_f1
