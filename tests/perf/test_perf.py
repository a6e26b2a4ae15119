"""Epoch-breakdown projection."""

import pytest

from repro.perf import EpochBreakdown, project_epoch_time


class TestBreakdown:
    def test_total_and_fraction(self):
        b = EpochBreakdown(sampling_seconds=2.0, training_seconds=2.0, comm_modeled_seconds=0.0)
        assert b.total_seconds == 4.0
        assert b.sampling_fraction == pytest.approx(0.5)

    def test_projection_divides_compute(self):
        serial = EpochBreakdown(4.0, 8.0, 0.0, world_size=1)
        proj = project_epoch_time(serial, 4, comm_modeled_seconds=0.5)
        assert proj.sampling_seconds == pytest.approx(1.0)
        assert proj.training_seconds == pytest.approx(2.0)
        assert proj.comm_modeled_seconds == pytest.approx(0.5)
        assert proj.world_size == 4

    def test_projection_validates(self):
        with pytest.raises(ValueError):
            project_epoch_time(EpochBreakdown(1, 1, 0), 0, 0.0)

    def test_as_dict(self):
        d = EpochBreakdown(1.0, 2.0, 0.5, world_size=2).as_dict()
        assert d["total_s"] == pytest.approx(3.5)
