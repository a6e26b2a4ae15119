"""Checkpoint retention, stale-tmp cleanup, and corrupt-file fallback."""

import os

import numpy as np
import pytest

from repro.faults import flip_bit, truncate_file
from repro.graph import random_graph
from repro.io import clean_stale_tmp
from repro.obs import RunTelemetry, use_telemetry
from repro.pipeline import (
    CheckpointCorruptError,
    CheckpointError,
    GNNTrainConfig,
    checkpoint_history_paths,
    load_with_fallback,
    train_gnn,
)

pytestmark = pytest.mark.guard


@pytest.fixture
def graphs():
    rng = np.random.default_rng(11)
    return [random_graph(60, 240, rng=rng, true_fraction=0.3) for _ in range(2)]


def _config(tmp_path, **overrides):
    fields = dict(
        mode="bulk", epochs=3, batch_size=16, hidden=8, num_layers=2,
        bulk_k=2, seed=5,
        checkpoint_every=1,
        checkpoint_path=str(tmp_path / "ck.npz"),
        keep_last=3,
    )
    fields.update(overrides)
    return GNNTrainConfig(**fields)


class TestRetention:
    def test_keep_last_prunes_history(self, tmp_path, graphs):
        config = _config(tmp_path, epochs=5, keep_last=2)
        train_gnn(graphs, graphs[:1], config)
        history = checkpoint_history_paths(config.checkpoint_path)
        assert len(history) == 2
        # newest first, named by (epoch, step)
        names = [os.path.basename(p) for p in history]
        assert names == ["ck.e0005s000000.npz", "ck.e0004s000000.npz"]

    def test_history_copies_are_independent_files(self, tmp_path, graphs):
        config = _config(tmp_path)
        train_gnn(graphs, graphs[:1], config)
        newest = checkpoint_history_paths(config.checkpoint_path)[0]
        # corrupting the primary must not corrupt the history copy
        flip_bit(config.checkpoint_path, byte_offset=256)
        load_with_fallback(newest, config.replace(epochs=4, resume_from=newest))

    def test_no_history_without_keep_last(self, tmp_path, graphs):
        config = _config(tmp_path, keep_last=None)
        train_gnn(graphs, graphs[:1], config)
        assert checkpoint_history_paths(config.checkpoint_path) == []


class TestStaleTmpCleanup:
    def test_clean_stale_tmp(self, tmp_path):
        stale = tmp_path / "junk.tmp.npz"
        stale.write_bytes(b"partial write")
        keep = tmp_path / "real.npz"
        keep.write_bytes(b"not a tmp file")
        removed = clean_stale_tmp(str(tmp_path))
        assert [os.path.basename(p) for p in removed] == ["junk.tmp.npz"]
        assert not stale.exists()
        assert keep.exists()

    def test_trainer_sweeps_stale_tmp_at_startup(self, tmp_path, graphs):
        stale = tmp_path / "crashed.tmp.npz"
        stale.write_bytes(b"partial write from a crashed run")
        train_gnn(graphs, graphs[:1], _config(tmp_path, epochs=1))
        assert not stale.exists()


class TestFallbackResume:
    def test_bit_flip_falls_back_to_history(self, tmp_path, graphs):
        config = _config(tmp_path)
        train_gnn(graphs, graphs[:1], config)
        flip_bit(config.checkpoint_path, byte_offset=256)
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            resumed = train_gnn(
                graphs, graphs[:1],
                config.replace(epochs=4, resume_from=config.checkpoint_path),
            )
        assert telemetry.metrics.to_dict()["counters"]["guard.resume.fallback"] == 1
        assert resumed.resume_fallback_path is not None
        assert resumed.resume_fallback_path != config.checkpoint_path
        assert resumed.resumed_epoch is not None
        assert all(np.isfinite(r.train_loss) for r in resumed.history.records)

    def test_truncation_falls_back_to_history(self, tmp_path, graphs):
        config = _config(tmp_path)
        train_gnn(graphs, graphs[:1], config)
        truncate_file(config.checkpoint_path, keep_bytes=100)
        state, path, fell_back = load_with_fallback(
            config.checkpoint_path,
            config.replace(resume_from=config.checkpoint_path),
        )
        assert fell_back
        assert path != config.checkpoint_path
        assert state.epochs_done >= 1

    def test_healthy_checkpoint_is_not_a_fallback(self, tmp_path, graphs):
        config = _config(tmp_path)
        train_gnn(graphs, graphs[:1], config)
        state, path, fell_back = load_with_fallback(
            config.checkpoint_path,
            config.replace(epochs=4, resume_from=config.checkpoint_path),
        )
        assert not fell_back
        assert path == config.checkpoint_path

    def test_all_copies_corrupt_reraises_primary(self, tmp_path, graphs):
        config = _config(tmp_path)
        train_gnn(graphs, graphs[:1], config)
        flip_bit(config.checkpoint_path, byte_offset=256)
        for candidate in checkpoint_history_paths(config.checkpoint_path):
            flip_bit(candidate, byte_offset=256)
        with pytest.raises(CheckpointCorruptError):
            load_with_fallback(
                config.checkpoint_path,
                config.replace(resume_from=config.checkpoint_path),
            )

    def test_config_mismatch_is_not_fallback_eligible(self, tmp_path, graphs):
        # a wrong config is an operator error, not media corruption: the
        # loader must complain, not silently resume something else
        config = _config(tmp_path)
        train_gnn(graphs, graphs[:1], config)
        wrong = config.replace(hidden=16, resume_from=config.checkpoint_path)
        with pytest.raises(CheckpointError):
            load_with_fallback(config.checkpoint_path, wrong)
