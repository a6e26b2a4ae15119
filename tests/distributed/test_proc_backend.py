"""Multi-process comm backend: bit-parity with the simulator, crash
tolerance (SIGKILL / hang / straggler chaos), and elastic recovery.

Everything here runs real worker processes; the per-test timeout cap
(pytest-timeout or the bundled fallback) turns a supervision bug into a
test failure instead of a wedged suite.
"""

import numpy as np
import pytest

from repro.distributed import (
    DistributedDataParallel,
    ProcCommunicator,
    replicate_model,
)
from repro.distributed.ring import ring_allreduce
from repro.distributed.supervisor import ControlBlock, HeartbeatMonitor
from repro.faults import (
    CommError,
    CommFault,
    CommTimeoutError,
    FaultPlan,
    ProcessFault,
    RankDeadError,
)
from repro.nn import MLP
from repro.tensor import Tensor

pytestmark = pytest.mark.timeout(90)


@pytest.fixture
def comm2():
    comm = ProcCommunicator(2, collective_timeout=15.0)
    yield comm
    comm.close()


@pytest.fixture
def comm4():
    comm = ProcCommunicator(4, collective_timeout=15.0)
    yield comm
    comm.close()


class TestAllreduceParity:
    @pytest.mark.parametrize("world", [1, 2, 3, 4])
    @pytest.mark.parametrize("average", [True, False])
    def test_bit_exact_with_sequential_ring(self, world, average, rng):
        comm = ProcCommunicator(world, collective_timeout=15.0)
        try:
            bufs = [
                rng.standard_normal(33).astype(np.float64) for _ in range(world)
            ]
            got = comm.allreduce([b.copy() for b in bufs], average=average)
            ref = ring_allreduce([b.copy() for b in bufs], average=average)
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)
        finally:
            comm.close()

    def test_float32_and_2d_shapes(self, comm4, rng):
        m = rng.standard_normal((5, 3)).astype(np.float32)
        bufs = [m + i for i in range(4)]
        got = comm4.allreduce([b.copy() for b in bufs], average=True)
        ref = ring_allreduce([b.copy() for b in bufs], average=True)
        for g, r in zip(got, ref):
            assert g.shape == (5, 3) and g.dtype == np.float32
            assert np.array_equal(g, r)

    def test_repeated_collectives_reuse_segments(self, comm2, rng):
        for n in (8, 64, 8, 256):  # grow, shrink, grow: segment reuse paths
            bufs = [rng.standard_normal(n) for _ in range(2)]
            got = comm2.allreduce([b.copy() for b in bufs], average=False)
            ref = ring_allreduce([b.copy() for b in bufs], average=False)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        assert comm2.stats.num_allreduce_calls == 4
        assert comm2.stats.measured_seconds > 0.0

    def test_world_size_mismatch_rejected(self, comm2):
        with pytest.raises(ValueError, match="rank buffers"):
            comm2.allreduce([np.ones(3)])

    def test_modeled_time_matches_alpha_beta_form(self, comm2):
        comm2.allreduce([np.ones(16)] * 2)
        expected = comm2.cost_model.allreduce_time(16 * 8, 2)
        assert comm2.stats.modeled_seconds == pytest.approx(expected)


class TestWorkerSharesOnThreads:
    """The schedule is race-free, not merely right when run in sequence:
    the real worker share (``_op_allreduce``), one thread per rank with a
    ``threading.Barrier`` standing in for ``_barrier_wait``, produces the
    simulator's bits."""

    @pytest.mark.parametrize(
        "live, n", [([0, 1], 33), ([0, 2, 3], 10), ([0, 1, 2, 3, 4], 3), (list(range(8)), 4133)]
    )
    def test_bits_match_lockstep(self, live, n, rng, monkeypatch):
        import sys
        import threading
        from types import SimpleNamespace

        from repro.distributed import proc_backend
        from repro.distributed.ring import ring_barriers

        p = len(live)
        bufs = [rng.standard_normal(n) for _ in live]
        work = {rank: b.copy() for rank, b in zip(live, bufs)}
        barrier = threading.Barrier(p)
        waits = {rank: [] for rank in live}

        def barrier_wait(ctrl, rank, seq, ranks, abort0, timeout):
            waits[rank].append(seq)
            barrier.wait(timeout=20)

        monkeypatch.setattr(proc_backend, "_barrier_wait", barrier_wait)
        names = {rank: f"segment-{rank}" for rank in live}
        segments = {names[rank]: SimpleNamespace(buf=work[rank]) for rank in live}
        cmd = {"live": live, "names": names, "nelems": n, "seq0": 5,
               "abort0": 0, "timeout": 20.0}
        errors = []

        def share(rank):
            try:
                proc_backend._op_allreduce(None, rank, cmd, dict(segments))
            except BaseException as exc:  # surfaced below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=share, args=(rank,)) for rank in live]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        ref = ring_allreduce(bufs, average=False)
        for rank, r in zip(live, ref):
            assert np.array_equal(work[rank], r)
        # every rank crossed the barriers the driver allocated, in order
        expected = list(range(5, 5 + ring_barriers(p)))
        assert all(seqs == expected for seqs in waits.values())


class TestBroadcastAndBarrier:
    def test_broadcast_bit_exact(self, comm4, rng):
        x = rng.standard_normal((3, 4))
        out = comm4.broadcast(x)
        assert len(out) == 4
        for o in out:
            assert np.array_equal(o, x) and o.dtype == x.dtype

    def test_barrier_counts_and_measures(self, comm4):
        comm4.barrier()
        comm4.barrier()
        assert comm4.stats.num_barrier_calls == 2
        assert comm4.stats.measured_seconds > 0.0

    def test_single_rank_shortcuts(self):
        comm = ProcCommunicator(1, collective_timeout=15.0)
        try:
            out = comm.allreduce([np.full(4, 7.0)])
            assert np.array_equal(out[0], np.full(4, 7.0))
            bout = comm.broadcast(np.arange(3.0))
            assert np.array_equal(bout[0], np.arange(3.0))
            comm.barrier()
        finally:
            comm.close()


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, rng):
        comm = ProcCommunicator(2, collective_timeout=15.0)
        comm.allreduce([rng.standard_normal(4) for _ in range(2)])
        comm.close()
        comm.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            comm.barrier()

    def test_remove_rank_validates(self, comm4):
        with pytest.raises(ValueError, match="not live"):
            comm4.remove_rank(9)
        comm4.remove_rank(1)
        with pytest.raises(ValueError, match="not live"):
            comm4.remove_rank(1)  # double eviction

    def test_last_rank_cannot_be_removed(self, comm2):
        comm2.remove_rank(0)
        with pytest.raises(RuntimeError, match="last surviving"):
            comm2.remove_rank(1)

    def test_collectives_shrink_after_eviction(self, comm4, rng):
        comm4.remove_rank(2)
        assert comm4.ranks == [0, 1, 3]
        bufs = [rng.standard_normal(10) for _ in range(3)]
        got = comm4.allreduce([b.copy() for b in bufs], average=True)
        ref = ring_allreduce([b.copy() for b in bufs], average=True)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        assert comm4.stats.rank_failures == [2]


@pytest.mark.faults
class TestChaos:
    def test_sigkill_surfaces_as_permanent_rank_death(self):
        plan = FaultPlan(
            process_faults=[ProcessFault(at_call=1, rank=1, kind="sigkill")]
        )
        comm = ProcCommunicator(
            4, fault_plan=plan, collective_timeout=10.0, heartbeat_deadline=1.0
        )
        try:
            comm.allreduce([np.ones(8)] * 4)  # attempt 0: clean
            with pytest.raises(RankDeadError) as excinfo:
                comm.allreduce([np.ones(8)] * 4)  # attempt 1: rank 1 dies
            assert excinfo.value.rank == 1
            assert not excinfo.value.transient
            comm.remove_rank(1)
            out = comm.allreduce([np.full(8, 3.0)] * 3)
            assert np.array_equal(out[0], np.full(8, 3.0))
        finally:
            comm.close()

    def test_hang_detected_by_heartbeat_deadline(self):
        plan = FaultPlan(
            process_faults=[ProcessFault(at_call=0, rank=2, kind="hang")]
        )
        comm = ProcCommunicator(
            3, fault_plan=plan, collective_timeout=20.0, heartbeat_deadline=0.5
        )
        try:
            with pytest.raises(RankDeadError) as excinfo:
                comm.allreduce([np.ones(4)] * 3)
            assert excinfo.value.rank == 2
            comm.remove_rank(2)  # SIGKILLs the stopped process too
            out = comm.allreduce([np.ones(4)] * 2)
            assert np.array_equal(out[0], np.ones(4))
        finally:
            comm.close()

    def test_straggler_times_out_transiently_then_recovers(self):
        plan = FaultPlan(
            process_faults=[
                ProcessFault(at_call=0, rank=0, kind="slow", duration=1.2)
            ]
        )
        comm = ProcCommunicator(
            2, fault_plan=plan, collective_timeout=0.3, heartbeat_deadline=30.0
        )
        try:
            with pytest.raises(CommTimeoutError) as excinfo:
                comm.allreduce([np.ones(4)] * 2)
            assert excinfo.value.transient
            import time

            time.sleep(1.5)  # straggler wakes, sees the abort, drains
            out = comm.allreduce([np.full(4, 5.0)] * 2)
            assert np.array_equal(out[0], np.full(4, 5.0))
        finally:
            comm.close()

    def test_exception_style_comm_faults_fire_like_sim(self):
        plan = FaultPlan(
            comm_faults=[CommFault(at_call=0, rank=1, transient=True)]
        )
        comm = ProcCommunicator(2, fault_plan=plan, collective_timeout=10.0)
        try:
            with pytest.raises(CommError) as excinfo:
                comm.allreduce([np.ones(4)] * 2)
            assert excinfo.value.transient
            out = comm.allreduce([np.ones(4)] * 2)  # next attempt clean
            assert np.array_equal(out[0], np.ones(4))
        finally:
            comm.close()


@pytest.mark.faults
class TestElasticDDP:
    @staticmethod
    def _make_ddp(comm, world):
        factory = lambda: MLP(
            4, 8, out_features=1, num_layers=2, rng=np.random.default_rng(3)
        )
        models = replicate_model(factory, world)
        return DistributedDataParallel(models, comm)

    @staticmethod
    def _backward_all(models, rng):
        for model in models:
            x = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
            out = model(x)
            out.backward(np.ones_like(out.data))

    def test_sigkill_evicts_and_resyncs_survivors(self, rng):
        plan = FaultPlan(
            process_faults=[ProcessFault(at_call=0, rank=2, kind="sigkill")]
        )
        comm = ProcCommunicator(
            4, fault_plan=plan, collective_timeout=10.0, heartbeat_deadline=1.0
        )
        try:
            ddp = self._make_ddp(comm, 4)
            self._backward_all(ddp.models, rng)
            ddp.synchronize_gradients()  # evicts rank 2, resyncs, retries
            assert ddp.global_ranks == [0, 1, 3]
            assert comm.stats.rank_failures == [2]
            grads = [list(m.parameters())[0].grad for m in ddp.models]
            for g in grads[1:]:
                assert np.array_equal(g, grads[0])
            ddp.assert_in_sync()
        finally:
            comm.close()

    def test_proc_matches_sim_gradients_bit_exactly(self, rng):
        from repro.distributed import SimCommunicator

        state = rng.bit_generator.state
        comms = {
            "sim": SimCommunicator(3),
            "proc": ProcCommunicator(3, collective_timeout=15.0),
        }
        grads = {}
        try:
            for name, comm in comms.items():
                local = np.random.default_rng()
                local.bit_generator.state = state
                ddp = self._make_ddp(comm, 3)
                self._backward_all(ddp.models, local)
                ddp.synchronize_gradients()
                grads[name] = [
                    p.grad.copy()
                    for _, p in ddp.models[0].named_parameters()
                ]
        finally:
            comms["proc"].close()
        for gs, gp in zip(grads["sim"], grads["proc"]):
            assert np.array_equal(gs, gp)


class TestWorkerTelemetry:
    """Per-rank worker tracing: spans/metrics drained over the command
    pipe and merged into the driver trace as one lane per rank."""

    def test_collect_returns_zero_when_telemetry_disabled(self, comm2, rng):
        comm2.allreduce([rng.standard_normal(4) for _ in range(2)])
        assert comm2.collect_worker_telemetry() == 0

    def test_worker_lanes_merge_into_driver_trace(self, rng):
        from repro.obs import RunTelemetry, use_telemetry

        telemetry = RunTelemetry.for_run(world_size=3)
        with use_telemetry(telemetry):
            comm = ProcCommunicator(3, collective_timeout=15.0)
            try:
                comm.allreduce([rng.standard_normal(16) for _ in range(3)])
                comm.broadcast(rng.standard_normal(4))
                comm.barrier()
                assert comm.collect_worker_telemetry() == 3
            finally:
                comm.close()
        payload = telemetry.tracer.to_chrome_trace()
        events = payload["traceEvents"]
        lane_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert lane_names[0] == "repro"
        assert {lane_names[pid] for pid in (1, 2, 3)} == {
            "rank 0", "rank 1", "rank 2"
        }
        by_pid = {}
        for e in events:
            if e["ph"] == "X":
                by_pid.setdefault(e["pid"], set()).add(e["name"])
        for pid in (1, 2, 3):
            assert {
                "comm.worker.allreduce", "comm.worker.broadcast",
                "comm.worker.barrier", "comm.worker.barrier_wait",
            } <= by_pid[pid], pid
        # the driver lane keeps its own collective + shm spans
        assert "comm.allreduce" in by_pid[0]
        assert "comm.shm_write" in by_pid[0]
        # worker metrics merged: counters sum, histograms pool
        snap = telemetry.metrics.to_dict()
        assert snap["counters"]["comm.worker.collectives"] == 9.0
        assert snap["counters"]["comm.worker.heartbeats"] >= 3.0
        assert snap["histograms"]["comm.worker.barrier_wait_ms"]["count"] > 0

    def test_repeated_collection_ships_deltas_not_duplicates(self, rng):
        from repro.obs import RunTelemetry, use_telemetry

        telemetry = RunTelemetry.for_run(world_size=2)
        with use_telemetry(telemetry):
            comm = ProcCommunicator(2, collective_timeout=15.0)
            try:
                comm.barrier()
                assert comm.collect_worker_telemetry() == 2
                first = telemetry.metrics.to_dict()["counters"][
                    "comm.worker.collectives"
                ]
                assert first == 2.0
                comm.barrier()
                assert comm.collect_worker_telemetry() == 2
                second = telemetry.metrics.to_dict()["counters"][
                    "comm.worker.collectives"
                ]
                assert second == 4.0  # delta shipping: no double counting
                barriers = [
                    s
                    for s in telemetry.tracer.remote_spans
                    if s["name"] == "comm.worker.barrier"
                ]
                assert len(barriers) == 4  # 2 ranks x 2 barriers, once each
            finally:
                comm.close()

    @pytest.mark.faults
    def test_eviction_emits_supervisor_events(self, rng):
        from repro.obs import RunTelemetry, use_telemetry

        telemetry = RunTelemetry.for_run(world_size=4)
        plan = FaultPlan(
            process_faults=[ProcessFault(at_call=1, rank=1, kind="sigkill")]
        )
        with use_telemetry(telemetry):
            comm = ProcCommunicator(
                4, fault_plan=plan, collective_timeout=10.0,
                heartbeat_deadline=1.0,
            )
            try:
                comm.allreduce([np.ones(8)] * 4)
                with pytest.raises(RankDeadError):
                    comm.allreduce([np.ones(8)] * 4)
                comm.remove_rank(1)
                comm.allreduce([np.ones(8)] * 3)
            finally:
                comm.close()
        event_names = {e["name"] for e in telemetry.tracer.events}
        assert "comm.supervisor.rank_death" in event_names
        assert "comm.supervisor.rank_evicted" in event_names
        counters = telemetry.metrics.to_dict()["counters"]
        assert counters["comm.supervisor.rank_death"] >= 1
        assert counters["comm.supervisor.rank_evicted"] == 1.0
        # dead rank 1 (pid 2) ships nothing; the survivors still merge
        lanes = {s["pid"] for s in telemetry.tracer.remote_spans}
        assert lanes == {1, 3, 4}


class TestSupervisorPieces:
    def test_control_block_roundtrip(self):
        ctrl = ControlBlock.create(3)
        try:
            other = ControlBlock.attach(ctrl.name, 3)
            ctrl.bump_abort()
            assert other.abort_generation == 1
            ctrl.bump_epoch()
            assert other.epoch == 1
            other.beat(1)
            assert ctrl.heartbeats[1] > 0
            other.close()
        finally:
            ctrl.close()

    def test_heartbeat_monitor_staleness(self):
        ctrl = ControlBlock.create(2)
        try:
            monitor = HeartbeatMonitor(ctrl, deadline=0.05)
            ctrl.beat(0)
            ctrl.heartbeats[1] = 0.0  # beat from the distant past
            assert not monitor.is_stale(0)
            assert monitor.stale_ranks([0, 1]) == [1]
        finally:
            ctrl.close()
