"""cProfile wrapper."""

import numpy as np
import pytest

from repro.perf import profiled


def _busy_work():
    total = np.zeros(100)
    for _ in range(50):
        total = total + np.sin(np.arange(100.0))
    return total


class TestProfiled:
    def test_captures_hotspots(self):
        with profiled() as report:
            _busy_work()
        assert len(report.hotspots) > 0
        assert all(h.total_seconds >= 0 for h in report.hotspots)

    def test_sorted_by_self_time(self):
        with profiled() as report:
            _busy_work()
        times = [h.total_seconds for h in report.hotspots]
        assert times == sorted(times, reverse=True)

    def test_find_by_substring(self):
        with profiled() as report:
            _busy_work()
        hits = report.find("_busy_work")
        assert len(hits) == 1
        assert hits[0].calls == 1

    def test_top_limits(self):
        with profiled() as report:
            _busy_work()
        assert len(report.top(3)) <= 3

    def test_render(self):
        with profiled() as report:
            _busy_work()
        rows = report.render(2)
        assert "function" in rows[0]
        assert len(rows) <= 3

    def test_report_usable_after_exception(self):
        try:
            with profiled() as report:
                _busy_work()
                raise ValueError("boom")
        except ValueError:
            pass
        assert len(report.hotspots) > 0


class TestByOp:
    def test_folds_forward_and_backward_closures_under_the_op(self):
        from repro.perf import by_op
        from repro.tensor import Tensor, ops

        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(30, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        idx = rng.integers(0, 5, size=30)
        with profiled() as report:
            for _ in range(3):
                h = ops.relu(ops.linear(x, w, b))
                ops.sum(ops.segment_sum(h, idx, 5)).backward()
        table = by_op(report)
        assert {"linear", "relu", "segment_sum", "sum"} <= set(table)
        assert "_column_sum" not in table  # private helpers are not ops
        for op in ("linear", "relu", "segment_sum"):
            fwd, bwd, calls = table[op]
            assert calls == 3 and fwd > 0 and bwd > 0
        totals = [fwd + bwd for fwd, bwd, _ in table.values()]
        assert totals == sorted(totals, reverse=True)

    def test_layer_epilogue_is_charged_to_its_host_op(self):
        """``linear(..., norm=...)`` is one row: the LayerNorm → ReLU
        helper's forward and backward land in ``linear``, not in a row of
        their own and not in ``layer_norm`` / ``relu``."""
        from repro.perf import by_op
        from repro.tensor import Tensor, ops

        rng = np.random.default_rng(0)
        x, w, b, gamma, beta = (
            Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in [(400, 16), (16, 16), (16,), (16,), (16,)]
        )
        with profiled() as report:
            for _ in range(3):
                ops.sum(ops.linear(x, w, b, norm=(gamma, beta, 1e-5))).backward()
        helper = report.find("_finish_layer")
        assert helper and helper[0].calls == 3  # it ran, inside linear's frames
        table = by_op(report)
        assert set(table) == {"linear", "sum"}
        fwd, bwd, calls = table["linear"]
        assert calls == 3
        assert fwd >= helper[0].cumulative_seconds
        assert bwd >= report.find("(pull)")[0].cumulative_seconds > 0

    def test_profile_without_ops_is_empty(self):
        from repro.perf import by_op

        with profiled() as report:
            _busy_work()
        assert by_op(report) == {}
