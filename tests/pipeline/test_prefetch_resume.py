"""Prefetch × checkpoint matrix: bit-identical weights in every cell.

The acceptance contract of the async data pipeline
(docs/data_pipeline.md): training with ``prefetch_workers=0`` and
``prefetch_workers=4``, each either uninterrupted or crashed mid-epoch
and resumed from a step checkpoint, produces **bit-identical final
weights and identical loss history** in all four combinations — in the
minibatch regimes and in full-graph mode alike (one loop serves both, so
``max_steps`` / ``checkpoint_every_steps`` / ``prefetch_workers`` are
honoured everywhere).
"""

import numpy as np
import pytest

from repro.obs import RunTelemetry, use_telemetry
from repro.pipeline import GNNTrainConfig, describe_checkpoint, train_gnn, trainers

SMALL = dict(
    mode="bulk",
    epochs=2,
    batch_size=32,
    hidden=8,
    num_layers=2,
    mlp_layers=2,
    depth=2,
    fanout=3,
    bulk_k=2,
    world_size=2,
    seed=0,
)


#: overrides that turn SMALL into a full-graph run (single-rank); the
#: ``*FullGraph`` subclasses below re-run every test of their base with it
FULL = {"mode": "full", "world_size": 1}


def _config(**overrides):
    return GNNTrainConfig(**dict(SMALL, **overrides))


def _deterministic_history(history):
    return [
        (r.epoch, r.train_loss, r.val_precision, r.val_recall)
        for r in history.records
    ]


def _steps_per_epoch(dataset, regime):
    probe = train_gnn(dataset.train, dataset.val, _config(epochs=1, **regime))
    assert probe.trained_steps > 2, "dataset too small for a mid-epoch crash"
    return probe.trained_steps


def _train_crashed_then_resumed(dataset, ckpt, workers, crash_at, regime):
    """Stop mid-epoch via max_steps, then resume from the step checkpoint."""
    crashed = train_gnn(
        dataset.train,
        dataset.val,
        _config(
            **regime,
            prefetch_workers=workers,
            checkpoint_path=ckpt,
            checkpoint_every_steps=1,
            max_steps=crash_at,
        ),
    )
    # the crash really was mid-epoch: no record for the torn epoch
    assert len(crashed.history) < SMALL["epochs"]
    # the budget is honoured, to the granularity of one plan step
    group = 1 if regime else SMALL["bulk_k"]
    assert crash_at <= crashed.trained_steps < crash_at + group
    info = describe_checkpoint(ckpt)
    assert info["step_in_epoch"] > 0
    return train_gnn(
        dataset.train,
        dataset.val,
        _config(prefetch_workers=workers, resume_from=ckpt, **regime),
    )


class TestPrefetchResumeMatrix:
    regime: dict = {}

    def test_all_four_combinations_bit_identical(self, tiny_dataset, tmp_path):
        per_epoch = _steps_per_epoch(tiny_dataset, self.regime)
        crash_at = per_epoch + max(per_epoch // 2, 1)  # inside epoch 1

        results = {
            "sync": train_gnn(
                tiny_dataset.train, tiny_dataset.val, _config(prefetch_workers=0, **self.regime)
            ),
            "prefetch": train_gnn(
                tiny_dataset.train, tiny_dataset.val, _config(prefetch_workers=4, **self.regime)
            ),
            "sync+resume": _train_crashed_then_resumed(
                tiny_dataset, str(tmp_path / "sync.npz"), 0, crash_at, self.regime
            ),
            "prefetch+resume": _train_crashed_then_resumed(
                tiny_dataset, str(tmp_path / "prefetch.npz"), 4, crash_at, self.regime
            ),
        }
        reference = results["sync"]
        ref_state = reference.model.state_dict()
        ref_history = _deterministic_history(reference.history)
        assert len(ref_history) == SMALL["epochs"]
        for name, result in results.items():
            state = result.model.state_dict()
            assert set(state) == set(ref_state), name
            for key in ref_state:
                assert np.array_equal(state[key], ref_state[key]), (name, key)
            assert _deterministic_history(result.history) == ref_history, name
            assert result.trained_steps == reference.trained_steps, name

    def test_crash_in_first_epoch_resumes(self, tiny_dataset, tmp_path):
        """The cursor also works when the torn epoch is epoch 0."""
        ckpt = str(tmp_path / "early.npz")
        reference = train_gnn(
            tiny_dataset.train, tiny_dataset.val, _config(prefetch_workers=2, **self.regime)
        )
        resumed = _train_crashed_then_resumed(tiny_dataset, ckpt, 2, 1, self.regime)
        ref_state = reference.model.state_dict()
        state = resumed.model.state_dict()
        for key in ref_state:
            assert np.array_equal(state[key], ref_state[key]), key
        assert _deterministic_history(resumed.history) == (
            _deterministic_history(reference.history)
        )

    def test_resume_may_change_worker_count(self, tiny_dataset, tmp_path):
        """prefetch_workers is a pure throughput knob: a checkpoint written
        at workers=0 resumes under workers=4 with identical results."""
        per_epoch = _steps_per_epoch(tiny_dataset, self.regime)
        crash_at = per_epoch + max(per_epoch // 2, 1)
        ckpt = str(tmp_path / "cross.npz")
        reference = train_gnn(
            tiny_dataset.train, tiny_dataset.val, _config(prefetch_workers=0, **self.regime)
        )
        train_gnn(
            tiny_dataset.train,
            tiny_dataset.val,
            _config(
                **self.regime,
                prefetch_workers=0,
                checkpoint_path=ckpt,
                checkpoint_every_steps=1,
                max_steps=crash_at,
            ),
        )
        resumed = train_gnn(
            tiny_dataset.train,
            tiny_dataset.val,
            _config(prefetch_workers=4, resume_from=ckpt, **self.regime),
        )
        ref_state = reference.model.state_dict()
        state = resumed.model.state_dict()
        for key in ref_state:
            assert np.array_equal(state[key], ref_state[key]), key


class TestPrefetchTelemetry:
    regime: dict = {}

    def test_queue_and_stall_metrics_exported(self, tiny_dataset):
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            train_gnn(
                tiny_dataset.train,
                tiny_dataset.val,
                _config(epochs=1, prefetch_workers=2, **self.regime),
            )
        m = telemetry.metrics
        assert m.counter("data.prefetch.steps").value > 0
        assert m.counter("data.prefetch.sample_seconds").value > 0
        assert m.gauge("data.prefetch.workers").value == 2
        assert m.histogram("data.prefetch.queue_depth_dist").count > 0
        assert m.histogram("data.prefetch.stall_s").count > 0
        names = {s.name for s in telemetry.tracer.spans}
        assert "data.prefetch.next" in names
        assert "data.prefetch.sample" in names


    def test_prefetch_threads_released_before_each_evaluation(
        self, tiny_dataset, monkeypatch, prefetch_samples
    ):
        """The loop releases the stepper at the end of every epoch, so no
        prefetch sample is queued or running on the shared pool when
        evaluation starts."""
        settled = []
        evaluate = trainers.evaluate_edge_classifier

        def spy(*args, **kwargs):
            settled.append(
                bool(prefetch_samples) and all(f.done() for f in prefetch_samples)
            )
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(trainers, "evaluate_edge_classifier", spy)
        train_gnn(
            tiny_dataset.train,
            tiny_dataset.val,
            _config(prefetch_workers=2, **self.regime),
        )
        assert settled == [True] * SMALL["epochs"]


class TestMaxStepsValidation:
    regime: dict = {}

    def test_mid_epoch_stop_leaves_partial_history(self, tiny_dataset, tmp_path):
        ckpt = str(tmp_path / "partial.npz")
        result = train_gnn(
            tiny_dataset.train,
            tiny_dataset.val,
            _config(
                **self.regime,
                checkpoint_path=ckpt,
                checkpoint_every_steps=1,
                max_steps=1,
            ),
        )
        assert result.trained_steps >= 1
        assert len(result.history) == 0  # torn epoch: no record written
        assert result.checkpoints_written >= 1

    def test_checkpoint_every_steps_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            _config(checkpoint_every_steps=2, **self.regime)


class TestPrefetchResumeMatrixFullGraph(TestPrefetchResumeMatrix):
    regime = FULL


class TestPrefetchTelemetryFullGraph(TestPrefetchTelemetry):
    regime = FULL


class TestMaxStepsValidationFullGraph(TestMaxStepsValidation):
    regime = FULL
