"""Full-graph training with gradient checkpointing (skip rescue)."""

import numpy as np
import pytest

from repro.faults import FaultPlan, NumericFault
from repro.guard import TrainingUnstableError
from repro.memory import ActivationMemoryModel
from repro.models import IGNNConfig
from repro.obs import RunTelemetry, use_telemetry
from repro.pipeline import GNNTrainConfig, train_gnn

SMALL = dict(epochs=2, hidden=8, num_layers=2, mlp_layers=2, seed=0)


@pytest.fixture(scope="module")
def splits(tiny_dataset):
    return tiny_dataset.train, tiny_dataset.val


def _memory_model(train):
    return ActivationMemoryModel(
        IGNNConfig(
            node_features=train[0].num_node_features,
            edge_features=train[0].num_edge_features,
            hidden=SMALL["hidden"],
            num_layers=SMALL["num_layers"],
        )
    )


def _rescue_capacity(train):
    """Just above every checkpointed footprint: each over-budget graph is
    recomputed, none is skipped."""
    mem = _memory_model(train)
    return max(mem.checkpointed_bytes(g.num_nodes, g.num_edges) for g in train) + 1


def _capacity_between(train, frac=0.5):
    """A budget above the checkpointed footprint but below full backprop."""
    mem = _memory_model(train)
    full = max(mem.total_bytes(g.num_nodes, g.num_edges) for g in train)
    ck = max(mem.checkpointed_bytes(g.num_nodes, g.num_edges) for g in train)
    assert ck < full
    return int(ck + frac * (full - ck))


class TestCheckpointRescue:
    def test_rescues_graphs_the_skip_policy_drops(self, splits):
        train, val = splits
        cap = _capacity_between(train)
        base = train_gnn(
            train, val, GNNTrainConfig(mode="full", capacity_bytes=cap, **SMALL)
        )
        rescued = train_gnn(
            train,
            val,
            GNNTrainConfig(
                mode="full", capacity_bytes=cap, checkpoint_activations=True, **SMALL
            ),
        )
        assert base.skipped_graphs > 0
        assert rescued.checkpointed_steps > 0
        assert rescued.trained_steps > base.trained_steps
        assert rescued.skipped_graphs < base.skipped_graphs

    def test_checkpointing_unused_when_everything_fits(self, splits):
        train, val = splits
        res = train_gnn(
            train,
            val,
            GNNTrainConfig(mode="full", checkpoint_activations=True, **SMALL),
        )
        assert res.checkpointed_steps == 0
        assert res.skipped_graphs == 0

    def test_still_skips_graphs_exceeding_checkpointed_footprint(self, splits):
        train, val = splits
        res = train_gnn(
            train,
            val,
            GNNTrainConfig(
                mode="full",
                capacity_bytes=1,
                checkpoint_activations=True,
                **SMALL,
            ),
        )
        assert res.trained_steps == 0
        assert res.skipped_graphs == len(train) * SMALL["epochs"]

    def test_checkpointed_run_converges(self, splits):
        """All-checkpointed training still reduces the loss."""
        train, val = splits
        res = train_gnn(
            train,
            val,
            GNNTrainConfig(
                mode="full",
                capacity_bytes=_rescue_capacity(train),
                checkpoint_activations=True,
                **{**SMALL, "epochs": 3},
            ),
        )
        # small graphs may fit outright; the oversized ones must all have
        # been rescued via checkpointing, with nothing skipped
        assert res.checkpointed_steps > 0
        assert res.skipped_graphs == 0
        assert res.trained_steps == len(train) * 3
        losses = res.history.series("train_loss")
        assert losses[-1] < losses[0]


def _rescued(**overrides):
    return GNNTrainConfig(mode="full", checkpoint_activations=True, **{**SMALL, **overrides})


class TestRecomputeIsTheSameFunction:
    """A recomputed step is the plain step with a smaller footprint: same
    bits, same fault schedule, same divergence checks, same spans."""

    def _assert_same_weights(self, splits, precision):
        train, val = splits
        plain = train_gnn(
            train, val, GNNTrainConfig(mode="full", precision=precision, **SMALL)
        )
        rescued = train_gnn(
            train,
            val,
            _rescued(capacity_bytes=_rescue_capacity(train), precision=precision),
        )
        assert 0 < rescued.checkpointed_steps
        assert rescued.skipped_graphs == 0
        assert rescued.history.series("train_loss") == plain.history.series("train_loss")
        for (name, a), (_, b) in zip(
            plain.model.named_parameters(), rescued.model.named_parameters()
        ):
            assert a.data.dtype == np.dtype(precision)
            assert np.array_equal(a.data, b.data), name

    def test_weights_bit_identical_to_the_uncapped_run(self, splits):
        self._assert_same_weights(splits, "float32")

    def test_weights_bit_identical_to_the_uncapped_run_float64(self, splits):
        self._assert_same_weights(splits, "float64")

    def test_grad_fault_on_a_recomputed_step_reaches_the_watchdog(self, splits):
        train, val = splits
        # one over-budget graph: every step of the run is a recomputed one
        big = [max(train, key=lambda g: g.num_edges)]
        cfg = _rescued(
            capacity_bytes=_rescue_capacity(big), watchdog=True, watchdog_max_rollbacks=0
        )
        clean = train_gnn(big, val, cfg)
        assert clean.checkpointed_steps == clean.trained_steps == SMALL["epochs"]
        plan = FaultPlan(numeric_faults=[NumericFault(at_step=1, target="grad")])
        with pytest.raises(TrainingUnstableError) as info:
            train_gnn(big, val, cfg, fault_plan=plan)
        assert "non-finite global grad norm" in str(info.value)

    def test_recomputed_steps_emit_forward_and_backward_spans(self, splits):
        train, val = splits
        telemetry = RunTelemetry.for_run(seed=0)
        with use_telemetry(telemetry):
            res = train_gnn(train, val, _rescued(capacity_bytes=_rescue_capacity(train)))
        assert res.checkpointed_steps > 0
        tracer = telemetry.tracer
        assert tracer.count("forward") == res.trained_steps
        assert tracer.count("backward") == res.trained_steps
