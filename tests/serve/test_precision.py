"""Serving precision mode: float64 reference engine agrees with float32."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import InferenceEngine, ServeConfig


def _tracks(engine, event):
    handle = engine.submit(event)
    engine.flush()
    return handle.result()


class TestServePrecision:
    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(precision="bfloat16")

    def test_float64_engine_matches_float32_tracks(self, serve_pipeline, serve_events):
        cfg = dict(max_batch_events=1, max_wait_ms=0.0, max_queue_events=4)
        base = InferenceEngine(serve_pipeline, ServeConfig(**cfg))
        tracks32 = _tracks(base, serve_events[0])
        base.close()
        try:
            engine = InferenceEngine(
                serve_pipeline, ServeConfig(**cfg, precision="float64")
            )
            model = serve_pipeline.gnn.result.model
            assert all(p.data.dtype == np.float64 for p in model.parameters())
            tracks64 = _tracks(engine, serve_events[0])
            engine.close()
        finally:
            # the session-scoped pipeline is shared: restore float32
            serve_pipeline.astype(np.float32)
        assert len(tracks32) == len(tracks64)
        for a, b in zip(tracks32, tracks64):
            np.testing.assert_array_equal(a, b)

    def test_default_engine_casts_back_to_float32(self, serve_pipeline):
        """An engine always serves at ITS precision, whatever dtype a
        previous engine left the shared pipeline in."""
        nets = (
            serve_pipeline.embedding.net,
            serve_pipeline.filter.net,
            serve_pipeline.gnn.model,
        )
        try:
            InferenceEngine(serve_pipeline, ServeConfig(precision="float64")).close()
            assert all(
                p.data.dtype == np.float64 for net in nets for p in net.parameters()
            )
            InferenceEngine(serve_pipeline, ServeConfig()).close()
            assert all(
                p.data.dtype == np.float32 for net in nets for p in net.parameters()
            )
        finally:
            serve_pipeline.astype(np.float32)
