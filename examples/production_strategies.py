"""Production-pipeline strategies: track builder and persistence.

The paper builds tracks with connected components on the GNN-pruned
graph; production pipelines also offer a score-guided walkthrough.  This
script fits both variants (metric-learning construction in each) on the
same simulated events, compares their tracking scores on a held-out
pileup event, then round-trips the walkthrough variant through
save/load, the deployment path: inference from a file, no retraining.

    python examples/production_strategies.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.detector import DetectorGeometry, EventSimulator, merge_events
from repro.pipeline import (
    ExaTrkXPipeline,
    GNNTrainConfig,
    PipelineConfig,
    load_pipeline,
    save_pipeline,
)


def main() -> None:
    geometry = DetectorGeometry.barrel_only()
    sim = EventSimulator(geometry, particles_per_event=20, noise_fraction=0.05)
    events = [sim.generate(np.random.default_rng(i), event_id=i) for i in range(15)]
    train_ev, val_ev = events[:12], events[12:13]
    # held-out test at pileup 2 — where the strategy choices matter
    test_event = merge_events(events[13:15], event_id=99)

    gnn = GNNTrainConfig(
        mode="bulk", epochs=5, batch_size=64, hidden=16,
        num_layers=2, mlp_layers=2, depth=2, fanout=4, bulk_k=4,
    )
    variants = {
        "metric + CC": PipelineConfig(
            embedding_dim=6, embedding_epochs=18, filter_epochs=18,
            frnn_radius=0.3, gnn=gnn, track_builder="cc",
        ),
        "metric + walkthrough": PipelineConfig(
            embedding_dim=6, embedding_epochs=18, filter_epochs=18,
            frnn_radius=0.3, gnn=gnn, track_builder="walkthrough",
        ),
    }

    best_pipe = None
    print(f"{'variant':<26} | {'graph eff':>9} | {'track eff':>9} | {'fake rate':>9}")
    for name, cfg in variants.items():
        pipe = ExaTrkXPipeline(cfg, geometry)
        report = pipe.fit(train_ev, val_ev)
        score = pipe.score_event(test_event)
        print(
            f"{name:<26} | {report.graph_edge_efficiency:>9.3f} | "
            f"{score.efficiency:>9.3f} | {score.fake_rate:>9.3f}"
        )
        if name == "metric + walkthrough":
            best_pipe = pipe

    # --- deployment: persist and reload ----------------------------------
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "pipeline.npz")
        save_pipeline(best_pipe, path)
        loaded = load_pipeline(path, geometry)
        again = loaded.score_event(test_event)
        print(
            f"\nsaved → loaded ({os.path.getsize(path) / 1024:.0f} KiB): "
            f"efficiency {again.efficiency:.3f} (identical inference, no retraining)"
        )


if __name__ == "__main__":
    main()
