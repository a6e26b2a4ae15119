"""Fixtures for the serving-engine tests: one small fitted pipeline."""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.detector import EventSimulator, ParticleGun
from repro.pipeline import ExaTrkXPipeline, GNNTrainConfig, PipelineConfig


@pytest.fixture(scope="session")
def serve_pipeline(geometry, small_events):
    """Small fitted pipeline shared by every serving test (fit once)."""
    config = PipelineConfig(
        embedding_dim=6,
        embedding_epochs=8,
        filter_epochs=8,
        frnn_radius=0.3,
        gnn=GNNTrainConfig(
            mode="bulk",
            epochs=3,
            batch_size=64,
            hidden=16,
            num_layers=2,
            mlp_layers=2,
            depth=2,
            fanout=4,
            bulk_k=4,
        ),
    )
    pipe = ExaTrkXPipeline(config, geometry)
    pipe.fit(small_events[:4], small_events[4:5])
    return pipe


@pytest.fixture(scope="session")
def serve_events(geometry):
    """Events the pipeline never trained on, for serving requests."""
    sim = EventSimulator(
        geometry,
        gun=ParticleGun(),
        particles_per_event=15,
        noise_fraction=0.05,
    )
    return [
        sim.generate(np.random.default_rng(900 + i), event_id=100 + i)
        for i in range(5)
    ]


@contextlib.contextmanager
def track_builder(pipe: ExaTrkXPipeline, builder: str):
    """Temporarily switch a (session-shared) pipeline's track builder."""
    original = pipe.config
    pipe.config = dataclasses.replace(original, track_builder=builder)
    try:
        yield pipe
    finally:
        pipe.config = original


def assert_tracks_equal(expected, actual, context=""):
    """Two track lists hold the same hit-index arrays, in order."""
    assert len(expected) == len(actual), context
    for a, b in zip(expected, actual):
        assert np.array_equal(a, b), context
