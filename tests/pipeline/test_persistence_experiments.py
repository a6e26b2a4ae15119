"""Pipeline save/load round-trip and multi-seed sweeps."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.faults import flip_bit, truncate_file
from repro.io.serialization import CheckpointError, atomic_savez
from repro.pipeline import (
    ExaTrkXPipeline,
    GNNTrainConfig,
    PipelineConfig,
    SeedSweepResult,
    load_pipeline,
    run_with_seeds,
    save_pipeline,
)


@pytest.fixture(scope="module")
def fitted(geometry, small_events):
    cfg = PipelineConfig(
        embedding_dim=6,
        embedding_epochs=10,
        filter_epochs=10,
        frnn_radius=0.3,
        gnn=GNNTrainConfig(
            mode="bulk", epochs=2, batch_size=32, hidden=8,
            num_layers=2, mlp_layers=2, depth=2, fanout=3, bulk_k=2,
        ),
    )
    pipe = ExaTrkXPipeline(cfg, geometry)
    pipe.fit(small_events[:4], small_events[4:5])
    return pipe


class TestPersistence:
    def test_round_trip_reconstruction_identical(self, fitted, geometry, small_events, tmp_path):
        path = str(tmp_path / "pipe.npz")
        save_pipeline(fitted, path)
        loaded = load_pipeline(path, geometry)
        before = fitted.reconstruct(small_events[5])
        after = loaded.reconstruct(small_events[5])
        assert len(before) == len(after)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_config_survives(self, fitted, geometry, tmp_path):
        path = str(tmp_path / "pipe.npz")
        save_pipeline(fitted, path)
        loaded = load_pipeline(path, geometry)
        assert loaded.config == fitted.config

    def test_all_weights_identical(self, fitted, geometry, tmp_path):
        path = str(tmp_path / "pipe.npz")
        save_pipeline(fitted, path)
        loaded = load_pipeline(path, geometry)
        for (n1, a), (n2, b) in zip(
            fitted.gnn.model.named_parameters(), loaded.gnn.model.named_parameters()
        ):
            assert n1 == n2
            assert np.array_equal(a.data, b.data)
        for (n1, a), (n2, b) in zip(
            fitted.embedding.net.named_parameters(),
            loaded.embedding.net.named_parameters(),
        ):
            assert np.array_equal(a.data, b.data), n1

    def test_reference_kernels_and_precision_survive(
        self, fitted, geometry, small_events, tmp_path
    ):
        """The reloaded GNN is built by the trainer's factory, so the
        unfused / float64 reference modes are not silently dropped."""
        cfg = dataclasses.replace(
            fitted.config,
            gnn=fitted.config.gnn.replace(fused_kernels=False, precision="float64"),
        )
        pipe = ExaTrkXPipeline(cfg, geometry)
        pipe.fit(small_events[:4], small_events[4:5])
        path = str(tmp_path / "pipe.npz")
        save_pipeline(pipe, path)
        loaded = load_pipeline(path, geometry)
        assert pipe.gnn.model.config.fused is False
        assert loaded.gnn.model.config.fused is False
        for a, b in zip(pipe.gnn.model.parameters(), loaded.gnn.model.parameters()):
            assert a.data.dtype == b.data.dtype == np.float64
            assert np.array_equal(a.data, b.data)
        for event in small_events[4:]:
            before, after = pipe.reconstruct(event), loaded.reconstruct(event)
            assert len(before) == len(after)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_unfitted_rejected(self, geometry, tmp_path):
        pipe = ExaTrkXPipeline(PipelineConfig(), geometry)
        with pytest.raises(RuntimeError):
            save_pipeline(pipe, str(tmp_path / "x.npz"))

    def test_creates_directories(self, fitted, tmp_path):
        path = str(tmp_path / "a" / "b" / "pipe.npz")
        save_pipeline(fitted, path)
        assert os.path.exists(path)


@pytest.mark.faults
class TestPersistenceDurability:
    """Torn writes and silent corruption must surface as CheckpointError."""

    def test_save_is_atomic_no_temp_left_behind(self, fitted, tmp_path):
        path = str(tmp_path / "pipe.npz")
        save_pipeline(fitted, path)
        assert os.path.exists(path)
        leftovers = [f for f in os.listdir(tmp_path) if f != "pipe.npz"]
        assert leftovers == []

    def test_truncated_archive_raises_checkpoint_error(self, fitted, geometry, tmp_path):
        path = str(tmp_path / "pipe.npz")
        save_pipeline(fitted, path)
        truncate_file(path, os.path.getsize(path) // 3)
        with pytest.raises(CheckpointError, match="pipe.npz"):
            load_pipeline(path, geometry)

    def test_bit_flip_raises_checkpoint_error(self, fitted, geometry, tmp_path):
        path = str(tmp_path / "pipe.npz")
        save_pipeline(fitted, path)
        flip_bit(path, os.path.getsize(path) // 2, bit=5)
        with pytest.raises(CheckpointError):
            load_pipeline(path, geometry)

    def test_garbage_file_raises_checkpoint_error(self, geometry, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(CheckpointError, match="junk.npz"):
            load_pipeline(str(path), geometry)

    def test_missing_file_raises_checkpoint_error(self, geometry, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_pipeline(str(tmp_path / "never_saved.npz"), geometry)

    def test_malformed_meta_raises_checkpoint_error(self, fitted, geometry, tmp_path):
        """A 'meta' entry of the wrong length is caught before unpacking."""
        path = str(tmp_path / "pipe.npz")
        save_pipeline(fitted, path)
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["meta"] = payload["meta"][:3]
        atomic_savez(path, payload)
        with pytest.raises(CheckpointError, match="meta"):
            load_pipeline(path, geometry)

    @staticmethod
    def _edit_config(path, edit):
        """Rewrite the archive's stored config through ``edit(dict)``."""
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        config = json.loads(bytes(payload["config_json"]).decode("utf-8"))
        edit(config)
        payload["config_json"] = np.frombuffer(
            json.dumps(config).encode("utf-8"), dtype=np.uint8
        )
        atomic_savez(path, payload)

    def test_retired_module_map_fields_still_load(
        self, fitted, geometry, small_events, tmp_path
    ):
        """Archives written while the config had the module-map knobs load
        and reconstruct the same tracks."""
        path = str(tmp_path / "pipe.npz")
        save_pipeline(fitted, path)
        self._edit_config(
            path,
            lambda c: c.update(module_map_phi_sectors=16, module_map_z_sectors=8),
        )
        loaded = load_pipeline(path, geometry)
        assert loaded.config == fitted.config
        before = fitted.reconstruct(small_events[5])
        after = loaded.reconstruct(small_events[5])
        assert len(before) == len(after)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.parametrize("section", ["pipeline", "gnn"])
    def test_unknown_config_field_raises_checkpoint_error(
        self, fitted, geometry, tmp_path, section
    ):
        path = str(tmp_path / "pipe.npz")
        save_pipeline(fitted, path)
        self._edit_config(
            path,
            lambda c: (c if section == "pipeline" else c["gnn"]).update(bogus=1),
        )
        with pytest.raises(CheckpointError, match=r"pipe\.npz.*bogus"):
            load_pipeline(path, geometry)


class TestSeedSweep:
    @pytest.fixture(scope="class")
    def sweep(self, tiny_dataset):
        cfg = GNNTrainConfig(
            mode="shadow", epochs=2, batch_size=32, hidden=8,
            num_layers=2, mlp_layers=2, depth=2, fanout=3,
        )
        return run_with_seeds(tiny_dataset.train, tiny_dataset.val, cfg, seeds=[0, 1, 2])

    def test_one_result_per_seed(self, sweep):
        assert len(sweep) == 3
        assert sweep.seeds == [0, 1, 2]

    def test_different_seeds_different_models(self, sweep):
        w0 = next(iter(sweep.results[0].model.parameters())).data
        w1 = next(iter(sweep.results[1].model.parameters())).data
        assert not np.array_equal(w0, w1)

    def test_mean_std_consistent(self, sweep):
        finals = [r.history.final.val_f1 for r in sweep.results]
        assert sweep.mean("val_f1") == pytest.approx(np.mean(finals))
        assert sweep.std("val_f1") == pytest.approx(np.std(finals))

    def test_summary_format(self, sweep):
        s = sweep.summary()
        assert set(s) == {"val_precision", "val_recall", "val_f1"}
        assert "±" in s["val_f1"]

    def test_empty_seeds_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            run_with_seeds(
                tiny_dataset.train, tiny_dataset.val, GNNTrainConfig(), seeds=[]
            )
