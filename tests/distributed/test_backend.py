"""CommBackend interface, factory selection, and backend-agnostic DDP
behaviour (stale-eviction handling, barrier accounting, strategy parity)."""

import numpy as np
import pytest

from repro.distributed import (
    COMM_BACKENDS,
    CommBackend,
    CommCostModel,
    DistributedDataParallel,
    NVLINK_A100,
    ProcCommunicator,
    SimCommunicator,
    create_communicator,
    replicate_model,
)
from repro.faults import CommError, CommFault, FaultPlan, ProcessFault, RetryPolicy
from repro.nn import MLP
from repro.tensor import Tensor


def _make_models(world=4, seed=3):
    factory = lambda: MLP(
        4, 8, out_features=1, num_layers=2, rng=np.random.default_rng(seed)
    )
    return replicate_model(factory, world)


def _backward_all(models, rng):
    for model in models:
        x = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
        out = model(x)
        out.backward(np.ones_like(out.data))


class TestFactory:
    def test_backends_tuple(self):
        assert COMM_BACKENDS == ("sim", "proc")

    def test_sim_selection(self):
        comm = create_communicator("sim", 3)
        assert isinstance(comm, SimCommunicator)
        assert isinstance(comm, CommBackend)
        assert comm.world_size == 3
        comm.close()  # no-op on the simulator

    def test_proc_selection(self):
        comm = create_communicator("proc", 2, collective_timeout=10.0)
        try:
            assert isinstance(comm, ProcCommunicator)
            assert isinstance(comm, CommBackend)
            assert comm.world_size == 2
        finally:
            comm.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown comm backend"):
            create_communicator("nccl", 2)

    def test_factory_forwards_cost_model_and_fault_plan(self):
        model = CommCostModel(alpha=1e-5, beta=1e-9)
        plan = FaultPlan()
        comm = create_communicator("sim", 2, cost_model=model, fault_plan=plan)
        assert comm.cost_model is model and comm.fault_plan is plan
        assert create_communicator("sim", 2).cost_model is NVLINK_A100

    def test_context_manager_closes(self):
        with create_communicator("proc", 2, collective_timeout=10.0) as comm:
            out = comm.allreduce([np.ones(4)] * 2)
            assert np.array_equal(out[0], np.ones(4))
        with pytest.raises(RuntimeError, match="closed"):
            comm.allreduce([np.ones(4)] * 2)


class TestSimBarrier:
    def test_barrier_charges_cost_model_and_counts(self):
        comm = SimCommunicator(4)
        before = comm.stats.modeled_seconds
        comm.barrier()
        assert comm.stats.num_barrier_calls == 1
        # dissemination barrier: ceil(log2 4) = 2 rounds of alpha
        assert comm.stats.modeled_seconds - before == pytest.approx(
            2 * comm.cost_model.alpha
        )

    def test_barrier_free_for_single_rank(self):
        comm = SimCommunicator(1)
        comm.barrier()
        assert comm.stats.num_barrier_calls == 1
        assert comm.stats.modeled_seconds == 0.0

    def test_barrier_consults_fault_plan(self):
        plan = FaultPlan(comm_faults=[CommFault(at_call=0, rank=1, transient=True)])
        comm = SimCommunicator(2, fault_plan=plan)
        with pytest.raises(CommError):
            comm.barrier()
        comm.barrier()  # attempt counter advanced; next call is clean
        assert comm.stats.num_barrier_calls == 1

    def test_barrier_time_values(self):
        model = NVLINK_A100
        assert model.barrier_time(1) == 0.0
        assert model.barrier_time(2) == pytest.approx(model.alpha)
        assert model.barrier_time(5) == pytest.approx(3 * model.alpha)
        with pytest.raises(ValueError):
            model.barrier_time(0)

    def test_sim_rejects_process_faults(self):
        plan = FaultPlan(process_faults=[ProcessFault(at_call=0, rank=1)])
        with pytest.raises(ValueError, match="proc"):
            SimCommunicator(2, fault_plan=plan)


class TestRetryPolicyMaxDelay:
    def test_uncapped_backoff_is_exponential(self):
        policy = RetryPolicy(max_retries=8, base_delay=0.1, multiplier=2.0)
        assert policy.delay(7) == pytest.approx(0.1 * 2**7)

    def test_max_delay_caps_the_exponential(self):
        policy = RetryPolicy(
            max_retries=8, base_delay=0.1, multiplier=2.0, max_delay=0.75
        )
        assert [policy.delay(i) for i in range(5)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.75, 0.75]
        )

    def test_negative_max_delay_rejected(self):
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(max_delay=-1.0)


class _StaleReportingComm(SimCommunicator):
    """Raises one permanent failure naming an already-evicted rank."""

    def __init__(self, world_size, stale_rank):
        super().__init__(world_size)
        self._stale_rank = stale_rank
        self._fired = False

    def allreduce(self, buffers, average=True):
        if not self._fired:
            self._fired = True
            raise CommError(
                f"late failure report for rank {self._stale_rank}",
                rank=self._stale_rank,
                transient=False,
            )
        return super().allreduce(buffers, average)


class TestStaleEvictionReport:
    """Regression: a permanent CommError naming an already-evicted rank
    used to crash synchronize_gradients (remove_rank ValueError)."""

    def test_stale_report_is_treated_as_handled(self, rng):
        comm = _StaleReportingComm(4, stale_rank=2)
        models = _make_models(4)
        ddp = DistributedDataParallel(models, comm)
        ddp.drop_rank(2)  # the rank is already gone when the report lands
        _backward_all(ddp.models, rng)
        ddp.synchronize_gradients()  # must not raise
        assert ddp.global_ranks == [0, 1, 3]
        assert any("stale" in e for e in comm.stats.events)
        # gradients really did synchronise on the retry
        grads = [list(m.parameters())[0].grad for m in ddp.models]
        for g in grads[1:]:
            assert np.array_equal(g, grads[0])

    def test_stale_report_budget_guards_against_livelock(self, rng):
        class _AlwaysStale(SimCommunicator):
            def allreduce(self, buffers, average=True):
                raise CommError("stuck reporter", rank=9, transient=False)

        comm = _AlwaysStale(4)
        models = _make_models(4)
        ddp = DistributedDataParallel(models, comm)
        _backward_all(ddp.models, rng)
        with pytest.raises(CommError):
            ddp.synchronize_gradients()


class TestMixedNoneGradientParity:
    """Satellite: parameters with grad=None on some ranks must reduce
    identically under per_parameter and coalesced synchronisation."""

    @staticmethod
    def _apply_mixed_grads(models, rng):
        # deterministic mixed pattern: parameter i on rank r carries a
        # gradient only when (i + r) is even; the rest stay None
        for r, model in enumerate(models):
            for i, (_, p) in enumerate(model.named_parameters()):
                if (i + r) % 2 == 0:
                    p.grad = rng.standard_normal(p.data.shape).astype(
                        p.data.dtype
                    )
                else:
                    p.grad = None

    def test_strategies_agree_with_mixed_none_grads(self):
        world = 4
        ddps = {}
        for strategy in ("per_parameter", "coalesced"):
            models = _make_models(world)
            ddps[strategy] = DistributedDataParallel(
                models, SimCommunicator(world), strategy=strategy
            )
            # identical grads in both setups: same seed, same pattern
            self._apply_mixed_grads(models, np.random.default_rng(7))
            ddps[strategy].synchronize_gradients()
        per_p, coal = ddps["per_parameter"], ddps["coalesced"]
        for m_p, m_c in zip(per_p.models, coal.models):
            for (name, p_p), (_, p_c) in zip(
                m_p.named_parameters(), m_c.named_parameters()
            ):
                assert p_p.grad is not None and p_c.grad is not None
                np.testing.assert_allclose(
                    p_p.grad, p_c.grad, rtol=0, atol=1e-6, err_msg=name
                )

    def test_all_none_on_one_rank_contributes_zeros(self):
        world = 2
        models = _make_models(world)
        ddp = DistributedDataParallel(models, SimCommunicator(world))
        rng = np.random.default_rng(11)
        reference = {}
        for i, (name, p) in enumerate(models[0].named_parameters()):
            p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
            reference[name] = p.grad
        for _, p in models[1].named_parameters():
            p.grad = None  # rank 1 sat this step out entirely
        ddp.synchronize_gradients()
        for name, p in models[0].named_parameters():
            np.testing.assert_allclose(
                p.grad, reference[name] / 2, rtol=0, atol=1e-6, err_msg=name
            )
