"""Pluggable graph-construction strategy (metric learning vs module map)."""

import numpy as np
import pytest

from repro.pipeline import (
    ExaTrkXPipeline,
    GNNTrainConfig,
    PipelineConfig,
    diagnose_event,
    save_pipeline,
)


@pytest.fixture(scope="module")
def mm_events(geometry):
    """The module map needs more training events than the metric-learning
    fixtures (coverage of the cell-pair space grows with statistics)."""
    from repro.detector import EventSimulator

    sim = EventSimulator(geometry, particles_per_event=20, noise_fraction=0.05)
    return [sim.generate(np.random.default_rng(800 + i), event_id=i) for i in range(14)]


@pytest.fixture(scope="module")
def mm_pipeline(geometry, mm_events):
    cfg = PipelineConfig(
        construction="module_map",
        filter_epochs=10,
        gnn=GNNTrainConfig(
            mode="bulk", epochs=3, batch_size=32, hidden=8,
            num_layers=2, mlp_layers=2, depth=2, fanout=3, bulk_k=2,
        ),
    )
    pipe = ExaTrkXPipeline(cfg, geometry)
    pipe.fit(mm_events[:12], mm_events[12:13])
    return pipe


class TestModuleMapStrategy:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(construction="random_edges")

    def test_fit_skips_embedding(self, mm_pipeline):
        assert mm_pipeline.embedding.net is None  # never trained
        assert mm_pipeline.construction is not None

    def test_reconstruct_works(self, mm_pipeline, mm_events):
        tracks = mm_pipeline.reconstruct(mm_events[13])
        assert all(len(t) >= 3 for t in tracks)

    def test_diagnostics_work(self, mm_pipeline, mm_events):
        diag = diagnose_event(mm_pipeline, mm_events[13])
        assert len(diag.stages) == 3

    def test_edge_efficiency_scores_the_graph_it_is_given(self, mm_pipeline, mm_events):
        """``fit`` passes each training graph in; the module map must score
        that graph, not build the event a second time."""
        event = mm_events[0]
        graph = mm_pipeline.construction.build(event)
        empty = graph.edge_mask_subgraph(np.zeros(graph.num_edges, dtype=bool))
        assert mm_pipeline.construction.edge_efficiency(event, graph) > 0.5
        assert mm_pipeline.construction.edge_efficiency(event, empty) == 0.0

    def test_report_populated(self, mm_pipeline):
        assert mm_pipeline.report.graph_edge_efficiency > 0.5
        assert mm_pipeline.report.gnn_final_recall > 0.0

    def test_persistence_not_supported(self, mm_pipeline, tmp_path):
        with pytest.raises(NotImplementedError):
            save_pipeline(mm_pipeline, str(tmp_path / "mm.npz"))

    def test_scores_reasonably(self, mm_pipeline, mm_events):
        score = mm_pipeline.score_event(mm_events[13])
        assert score.efficiency > 0.2
