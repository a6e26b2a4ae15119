"""Batch tracking evaluation over events."""

import numpy as np
import pytest

from repro.metrics import evaluate_tracking
from repro.pipeline import ExaTrkXPipeline, GNNTrainConfig, PipelineConfig


@pytest.fixture(scope="module")
def fitted(geometry, small_events):
    cfg = PipelineConfig(
        embedding_dim=6,
        embedding_epochs=12,
        filter_epochs=12,
        frnn_radius=0.3,
        gnn=GNNTrainConfig(
            mode="bulk", epochs=3, batch_size=32, hidden=8,
            num_layers=2, mlp_layers=2, depth=2, fanout=3, bulk_k=2,
        ),
    )
    pipe = ExaTrkXPipeline(cfg, geometry)
    pipe.fit(small_events[:4], small_events[4:5])
    return pipe


class TestEvaluateTracking:
    def test_aggregates_over_events(self, fitted, small_events):
        ev = evaluate_tracking(fitted, small_events[4:6])
        assert len(ev.per_event) == 2
        assert 0.0 <= ev.efficiency <= 1.0
        assert 0.0 <= ev.fake_rate <= 1.0

    def test_pooled_efficiency_matches_counts(self, fitted, small_events):
        ev = evaluate_tracking(fitted, small_events[4:6])
        matched = sum(s.num_matched for s in ev.per_event)
        total = sum(s.num_reconstructable for s in ev.per_event)
        assert ev.efficiency == pytest.approx(matched / total)

    def test_pt_efficiency_counts_all_reconstructable(self, fitted, small_events):
        ev = evaluate_tracking(fitted, small_events[4:6], pt_edges=[0.0, 100.0])
        total = sum(s.num_reconstructable for s in ev.per_event)
        assert int(ev.pt_efficiency.total.sum()) == total

    def test_pt_efficiency_consistent_with_aggregate(self, fitted, small_events):
        ev = evaluate_tracking(fitted, small_events[4:6], pt_edges=[0.0, 100.0])
        assert ev.pt_efficiency.passed.sum() / ev.pt_efficiency.total.sum() == pytest.approx(
            ev.efficiency
        )

    def test_pt_resolution_finite_when_tracks_found(self, fitted, small_events):
        ev = evaluate_tracking(fitted, small_events[4:6])
        if ev.pt_residuals.size:
            assert np.isfinite(ev.pt_resolution)

    def test_render_lines(self, fitted, small_events):
        lines = evaluate_tracking(fitted, small_events[4:5]).render()
        assert any("efficiency=" in l for l in lines)

    def test_disable_pt_binning(self, fitted, small_events):
        ev = evaluate_tracking(fitted, small_events[4:5], pt_edges=None)
        assert ev.pt_efficiency is None


class _OneCandidate:
    """A pipeline stub whose only candidate is ``candidate`` on every event."""

    def __init__(self, geometry, candidate):
        self.geometry, self.candidate = geometry, candidate

    def reconstruct_many(self, events):
        return [[self.candidate] for _ in events]


def test_short_candidate_is_unmatched_in_the_pt_curve_too(geometry, small_events):
    """A candidate below ``min_hits`` is never scored, so it matches its
    particle neither in ``efficiency`` nor in ``pt_efficiency``."""
    event = small_events[0]
    counts = np.bincount(event.particle_ids[event.particle_ids > 0])
    pid = int(np.argmax(counts))
    hits = np.flatnonzero(event.particle_ids == pid)
    short = hits[: hits.size // 2 + 1]  # a double majority of the particle
    min_hits = short.size + 1  # ... one hit short of being scored
    assert min_hits <= hits.size  # the particle stays reconstructable
    ev = evaluate_tracking(
        _OneCandidate(geometry, short), [event], pt_edges=[0.0, 100.0], min_hits=min_hits
    )
    assert ev.per_event[0].num_candidates == 0
    assert ev.efficiency == 0.0
    assert int(ev.pt_efficiency.total.sum()) == ev.per_event[0].num_reconstructable > 0
    assert int(ev.pt_efficiency.passed.sum()) == 0
