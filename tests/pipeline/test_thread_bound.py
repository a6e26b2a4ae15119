"""Training's live threads stay within a stated bound: the caller's
baseline, the sampling prefetch workers and the per-event helpers."""

import threading

from repro.models import InteractionGNN
from repro.pipeline import GNNTrainConfig, _per_event, train_gnn


def test_training_threads_stay_within_prefetch_plus_helpers(tiny_dataset, monkeypatch):
    live = []
    forward = InteractionGNN.forward

    def counted(self, *args, **kwargs):
        live.append(threading.active_count())
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(InteractionGNN, "forward", counted)
    baseline = threading.active_count()
    config = GNNTrainConfig(
        mode="bulk", epochs=1, batch_size=32, hidden=8, num_layers=2,
        mlp_layers=2, depth=2, fanout=3, bulk_k=2, world_size=2,
        prefetch_workers=1, seed=0,
    )
    train_gnn(tiny_dataset.train, tiny_dataset.val, config)
    assert live and max(live) <= baseline + config.prefetch_workers + _per_event._HELPERS
