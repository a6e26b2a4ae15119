"""Stability watchdog: divergence detection, rollback, determinism."""

import os

import numpy as np
import pytest

from repro.faults import FaultPlan, NumericFault
from repro.graph import random_graph
from repro.obs import RunTelemetry, use_telemetry
from repro.guard import (
    DivergenceError,
    StabilityWatchdog,
    TrainingUnstableError,
    WatchdogConfig,
    global_grad_norm,
)
from repro.pipeline import GNNTrainConfig, train_gnn

pytestmark = pytest.mark.guard


class TestWatchdogUnit:
    def test_nan_loss_raises(self):
        wd = StabilityWatchdog(WatchdogConfig())
        wd.observe_loss(1.0)
        with pytest.raises(DivergenceError) as info:
            wd.observe_loss(float("nan"), step=17)
        assert info.value.step == 17

    def test_inf_grad_norm_raises(self):
        wd = StabilityWatchdog(WatchdogConfig())
        with pytest.raises(DivergenceError):
            wd.observe_grad_norm(float("inf"))

    def test_spike_requires_history(self):
        wd = StabilityWatchdog(WatchdogConfig(min_history=3, spike_factor=10.0))
        wd.observe_loss(1.0)
        wd.observe_loss(50.0)  # only 2 observations: detector not armed
        wd.observe_loss(1.0)
        wd.observe_loss(1.0)
        with pytest.raises(DivergenceError):
            wd.observe_loss(100.0)  # armed now: 100 > 10 x median

    def test_ordinary_noise_tolerated(self):
        wd = StabilityWatchdog(WatchdogConfig(min_history=3, spike_factor=10.0))
        rng = np.random.default_rng(0)
        for _ in range(100):
            wd.observe_loss(float(1.0 + 0.5 * rng.random()))
        assert wd.divergences == 0

    def test_rollback_budget(self):
        wd = StabilityWatchdog(WatchdogConfig(max_rollbacks=2, lr_backoff=0.5))
        assert wd.can_rollback()
        assert wd.register_rollback() == 0.5
        assert wd.can_rollback()
        wd.register_rollback()
        assert not wd.can_rollback()

    def test_rollback_clears_history(self):
        wd = StabilityWatchdog(WatchdogConfig(min_history=3, spike_factor=10.0))
        for _ in range(5):
            wd.observe_loss(1.0)
        wd.register_rollback()
        # the window restarts: a big value right after rollback is not a
        # spike relative to stale pre-rollback history
        wd.observe_loss(8.0)
        assert wd.divergences == 0

    def test_global_grad_norm(self):
        from repro.nn import MLP

        model = MLP(4, 8, 2)
        norm = global_grad_norm(model)
        assert norm == 0.0  # no backward yet -> no gradients


def _faulted_config(tmp_path, tag, **overrides):
    fields = dict(
        mode="bulk", epochs=4, batch_size=16, hidden=8, num_layers=2,
        bulk_k=2, seed=3,
        checkpoint_every=1,
        checkpoint_path=str(tmp_path / f"wd_{tag}.npz"),
        watchdog=True, watchdog_max_rollbacks=2, watchdog_lr_backoff=0.5,
    )
    fields.update(overrides)
    return GNNTrainConfig(**fields)


@pytest.fixture
def train_graphs():
    rng = np.random.default_rng(7)
    return [random_graph(60, 240, rng=rng, true_fraction=0.3) for _ in range(2)]


class TestWatchdogRollback:
    def test_nan_loss_rolls_back_and_recovers(self, tmp_path, train_graphs):
        plan = FaultPlan(numeric_faults=[NumericFault(at_step=20, target="loss")])
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            result = train_gnn(
                train_graphs, train_graphs[:1], _faulted_config(tmp_path, "a"),
                fault_plan=plan,
            )
        assert result.watchdog_rollbacks == 1
        assert telemetry.metrics.to_dict()["counters"]["guard.watchdog.rollbacks"] == 1
        losses = [r.train_loss for r in result.history.records]
        assert losses and all(np.isfinite(losses))

    def test_nan_grad_rolls_back_and_recovers(self, tmp_path, train_graphs):
        plan = FaultPlan(numeric_faults=[NumericFault(at_step=20, target="grad")])
        result = train_gnn(
            train_graphs, train_graphs[:1], _faulted_config(tmp_path, "g"),
            fault_plan=plan,
        )
        assert result.watchdog_rollbacks == 1
        assert all(np.isfinite(r.train_loss) for r in result.history.records)

    def test_rollback_is_deterministic(self, tmp_path, train_graphs):
        histories = []
        for tag in ("d1", "d2"):
            plan = FaultPlan(
                numeric_faults=[NumericFault(at_step=20, target="loss")]
            )
            result = train_gnn(
                train_graphs, train_graphs[:1],
                _faulted_config(tmp_path, tag), fault_plan=plan,
            )
            histories.append([r.train_loss for r in result.history.records])
        assert histories[0] == histories[1]

    def test_budget_exhaustion_raises_unstable(self, tmp_path, train_graphs):
        # three scheduled NaNs against a budget of two rollbacks
        plan = FaultPlan(
            numeric_faults=[NumericFault(at_step=20, target="loss", times=40)]
        )
        with pytest.raises(TrainingUnstableError) as info:
            train_gnn(
                train_graphs, train_graphs[:1],
                _faulted_config(tmp_path, "x"), fault_plan=plan,
            )
        assert info.value.rollbacks == 2

    def test_divergence_before_first_checkpoint_raises(self, tmp_path, train_graphs):
        # at_step=2 fires in epoch 0, before any checkpoint exists
        plan = FaultPlan(numeric_faults=[NumericFault(at_step=2, target="loss")])
        with pytest.raises(TrainingUnstableError):
            train_gnn(
                train_graphs, train_graphs[:1],
                _faulted_config(tmp_path, "early"), fault_plan=plan,
            )

    def test_without_watchdog_nan_raises_floating_point_error(
        self, tmp_path, train_graphs
    ):
        plan = FaultPlan(numeric_faults=[NumericFault(at_step=20, target="loss")])
        config = _faulted_config(tmp_path, "off", watchdog=False)
        with pytest.raises(FloatingPointError):
            train_gnn(train_graphs, train_graphs[:1], config, fault_plan=plan)

    def test_rollback_keeps_checkpoint_usable_for_plain_resume(
        self, tmp_path, train_graphs
    ):
        plan = FaultPlan(numeric_faults=[NumericFault(at_step=20, target="loss")])
        config = _faulted_config(tmp_path, "r")
        result = train_gnn(train_graphs, train_graphs[:1], config, fault_plan=plan)
        assert result.watchdog_rollbacks == 1
        assert os.path.exists(config.checkpoint_path)
        # the final checkpoint resumes cleanly; its embedded config
        # carries the backed-off lr (1e-3 * 0.5 after one rollback)
        resumed = train_gnn(
            train_graphs, train_graphs[:1],
            config.replace(
                epochs=5, resume_from=config.checkpoint_path, lr=0.5e-3
            ),
        )
        assert resumed.resumed_epoch is not None
