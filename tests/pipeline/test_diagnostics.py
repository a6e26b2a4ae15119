"""Per-stage diagnostics of a fitted pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.pipeline import (
    ExaTrkXPipeline,
    GNNTrainConfig,
    PipelineConfig,
    diagnose_event,
)
from repro.pipeline.config import TRACK_BUILDERS


@pytest.fixture(scope="module")
def fitted(geometry, small_events):
    config = PipelineConfig(
        embedding_dim=6,
        embedding_epochs=15,
        filter_epochs=15,
        frnn_radius=0.3,
        gnn=GNNTrainConfig(
            mode="bulk", epochs=3, batch_size=64, hidden=16,
            num_layers=2, mlp_layers=2, depth=2, fanout=4, bulk_k=4,
        ),
    )
    pipe = ExaTrkXPipeline(config, geometry)
    pipe.fit(small_events[:4], small_events[4:5])
    return pipe


class TestDiagnostics:
    def test_three_stages_reported(self, fitted, small_events):
        diag = diagnose_event(fitted, small_events[5])
        assert [s.name for s in diag.stages] == [
            "graph construction",
            "filter MLP",
            "interaction GNN",
        ]

    def test_edges_monotone_nonincreasing(self, fitted, small_events):
        diag = diagnose_event(fitted, small_events[5])
        edges = [s.num_edges for s in diag.stages]
        assert edges[0] >= edges[1] >= edges[2]

    def test_purity_improves_downstream(self, fitted, small_events):
        """Each pruning stage should raise edge purity."""
        diag = diagnose_event(fitted, small_events[5])
        purities = [s.purity for s in diag.stages]
        assert purities[2] >= purities[0]

    def test_recall_bounded_by_upstream(self, fitted, small_events):
        diag = diagnose_event(fitted, small_events[5])
        recalls = [s.segment_recall for s in diag.stages]
        assert recalls[0] >= recalls[1] >= recalls[2] - 1e-9

    def test_auc_present_and_discriminative(self, fitted, small_events):
        diag = diagnose_event(fitted, small_events[5])
        assert diag.gnn_auc is not None
        assert diag.gnn_auc > 0.7

    def test_render_lines(self, fitted, small_events):
        lines = diagnose_event(fitted, small_events[5]).render()
        assert any("graph construction" in l for l in lines)
        assert any("tracking:" in l for l in lines)

    @pytest.mark.parametrize("builder", TRACK_BUILDERS)
    def test_tracking_is_score_event_for_every_builder(
        self, fitted, small_events, builder
    ):
        """The diagnostics report on the pipeline's own traversal, so
        their tracking row is the configured builder's — not a
        hard-coded connected-components pass."""
        original = fitted.config
        fitted.config = dataclasses.replace(original, track_builder=builder)
        try:
            for event in small_events:
                assert diagnose_event(fitted, event).tracking == fitted.score_event(event)
        finally:
            fitted.config = original

    def test_gnn_forward_runs_once(self, fitted, small_events, monkeypatch):
        model = fitted.gnn.model
        calls = []
        forward = model.predict_proba
        monkeypatch.setattr(
            model, "predict_proba", lambda g: calls.append(1) or forward(g)
        )
        diagnose_event(fitted, small_events[5])
        assert len(calls) == 1

    def test_unfitted_rejected(self, geometry, small_events):
        pipe = ExaTrkXPipeline(PipelineConfig(), geometry)
        with pytest.raises(RuntimeError):
            diagnose_event(pipe, small_events[0])
