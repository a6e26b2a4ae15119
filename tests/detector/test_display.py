"""The SVG event display."""

import numpy as np
import pytest

from repro.detector import DetectorGeometry, EventSimulator, event_display_svg


@pytest.fixture(scope="module")
def geo():
    return DetectorGeometry.barrel_only()


@pytest.fixture(scope="module")
def events(geo):
    sim = EventSimulator(geo, particles_per_event=25, noise_fraction=0.05)
    return [sim.generate(np.random.default_rng(300 + i)) for i in range(22)]


class TestEventDisplay:
    def test_valid_svg_structure(self, geo, events):
        svg = event_display_svg(events[0], geo)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") >= events[0].num_hits  # hits + layers

    def test_candidates_drawn_as_polylines(self, geo, events):
        ev = events[0]
        pid = int(np.unique(ev.particle_ids[ev.particle_ids > 0])[0])
        cand = np.flatnonzero(ev.particle_ids == pid)
        svg = event_display_svg(ev, geo, candidates=[cand])
        assert svg.count("<polyline") == 1

    def test_short_candidates_skipped(self, geo, events):
        svg = event_display_svg(events[0], geo, candidates=[np.array([0])])
        assert "<polyline" not in svg

    def test_noise_coloured_grey(self, geo, events):
        ev = events[0]
        if np.any(ev.particle_ids == 0):
            svg = event_display_svg(ev, geo)
            assert "#999999" in svg
