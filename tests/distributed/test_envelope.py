"""The collective envelope is backend-independent.

``CommBackend`` owns span, fault hook, α–β charge, ``CommStats`` and the
eviction event; ``sim`` and ``proc`` supply only the data movement.  So
the same call on either backend must leave the same accounting behind —
``proc`` adding exactly its wall-clock measurement — and float64
gradients must survive the coalesced path unrounded on both.
"""

import re
from dataclasses import asdict

import numpy as np
import pytest

from repro.distributed import (
    COMM_BACKENDS,
    DistributedDataParallel,
    create_communicator,
    replicate_model,
)
from repro.nn import MLP
from repro.obs import RunTelemetry, use_telemetry

pytestmark = pytest.mark.timeout(90)

WORLD = 3
OPS = {
    "allreduce": lambda comm: comm.allreduce(
        [np.full(6, float(r), dtype=np.float32) for r in comm.ranks]
    ),
    "broadcast": lambda comm: comm.broadcast(np.arange(5, dtype=np.float64)),
    "barrier": lambda comm: comm.barrier(),
    "remove_rank": lambda comm: comm.remove_rank(1),
}
# what proc adds to the surface sim shows: a wall-clock measurement
PROC_ONLY_ATTRS = {"backend", "measured_s"}


def _observe(backend, op):
    """Run ``op`` once on a fresh communicator; return everything the
    envelope leaves behind."""
    telemetry = RunTelemetry.for_run(world_size=WORLD)
    with use_telemetry(telemetry):
        with create_communicator(backend, WORLD, collective_timeout=15.0) as comm:
            result = OPS[op](comm)
            stats = asdict(comm.stats)
    spans = [
        (s.name, s.category, set(s.attributes), s.attributes)
        for s in telemetry.tracer.spans
        if re.fullmatch(r"comm\.(allreduce|broadcast|barrier)", s.name)
    ]
    return result, stats, spans


@pytest.mark.parametrize("op", list(OPS))
@pytest.mark.parametrize("backend", COMM_BACKENDS)
def test_backends_leave_the_same_accounting(backend, op):
    result, stats, spans = _observe(backend, op)
    ref_result, ref_stats, ref_spans = _observe("sim", op)

    # data: same values, same dtype, one copy per live rank
    if op in ("allreduce", "broadcast"):
        assert len(result) == WORLD
        for got, ref in zip(result, ref_result):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
    else:
        assert result == ref_result

    # CommStats: identical but for the measured wall-clock ...
    measured = stats.pop("measured_seconds")
    assert ref_stats.pop("measured_seconds") == 0.0
    events, ref_events = stats.pop("events"), ref_stats.pop("events")
    assert stats == ref_stats
    if op == "remove_rank":
        assert measured == 0.0  # an eviction is bookkeeping, not a collective
    else:
        assert (measured > 0.0) == (backend == "proc")

    # ... one comm.<op> span with the same name / category / keys ...
    if op == "remove_rank":
        assert spans == ref_spans == []
    else:
        [(name, category, keys, attrs)] = spans
        [(ref_name, ref_category, ref_keys, ref_attrs)] = ref_spans
        assert (name, category) == (ref_name, ref_category) == (f"comm.{op}", "comm")
        assert keys - PROC_ONLY_ATTRS == ref_keys
        assert (keys & PROC_ONLY_ATTRS == PROC_ONLY_ATTRS) == (backend == "proc")
        for key in ref_keys:
            assert attrs[key] == ref_attrs[key], key
        assert attrs.get("backend", "proc") == "proc"

    # ... and the same eviction line (proc appends its membership epoch)
    assert len(events) == len(ref_events) == (1 if op == "remove_rank" else 0)
    for event, ref_event in zip(events, ref_events):
        assert ref_event == (
            "rank 1 permanently failed; continuing with world size 2 "
            "(survivors: [0, 2])"
        )
        assert event.replace(", epoch 1)", ")") == ref_event
        assert (event != ref_event) == (backend == "proc")


@pytest.mark.parametrize("backend", COMM_BACKENDS)
def test_failed_attempt_is_charged_nothing(backend):
    from repro.faults import CommError, CommFault, FaultPlan

    plan = FaultPlan(comm_faults=[CommFault(at_call=0, rank=1, transient=True)])
    with create_communicator(
        backend, 2, fault_plan=plan, collective_timeout=15.0
    ) as comm:
        with pytest.raises(CommError):
            comm.allreduce([np.ones(4)] * 2)
        assert comm.stats.to_dict() == type(comm.stats)().to_dict()
        comm.allreduce([np.ones(4)] * 2)
        assert comm.stats.num_allreduce_calls == 1


def test_stats_views_cover_every_field():
    from dataclasses import fields

    from repro.distributed import CommStats

    stats = CommStats(num_retries=2, rank_failures=[3], events=["a", "b"])
    view = stats.to_dict()
    assert list(view) == [
        "num_allreduce_calls", "bytes_reduced", "num_broadcast_calls",
        "bytes_broadcast", "num_barrier_calls", "modeled_seconds",
        "measured_seconds", "num_retries", "retry_backoff_seconds",
        "rank_failures", "num_events",
    ]
    assert set(view) == {f.name for f in fields(stats)} - {"events"} | {"num_events"}
    assert view["num_events"] == 2 and view["rank_failures"] == [3]
    assert view["rank_failures"] is not stats.rank_failures
    stats.reset()
    assert stats == CommStats()


# ----------------------------------------------------------------------
# float64 reference mode through the coalesced all-reduce
# ----------------------------------------------------------------------
def _float64_grads(backend, strategy):
    world = 2
    factory = lambda: MLP(
        4, 8, out_features=1, num_layers=2, rng=np.random.default_rng(3)
    ).astype(np.float64)
    models = replicate_model(factory, world)
    rng = np.random.default_rng(11)
    for model in models:
        for p in model.parameters():
            # values float32 cannot hold: rounding them would show
            p.grad = rng.standard_normal(p.data.shape) * (1.0 + 1e-9)
    with create_communicator(backend, world, collective_timeout=15.0) as comm:
        DistributedDataParallel(models, comm, strategy=strategy).synchronize_gradients()
    return [p.grad for p in models[0].parameters()]


@pytest.mark.parametrize("backend", COMM_BACKENDS)
def test_float64_coalesced_equals_per_parameter_bit_for_bit(backend):
    coalesced = _float64_grads(backend, "coalesced")
    per_parameter = _float64_grads(backend, "per_parameter")
    for got, ref in zip(coalesced, per_parameter):
        assert got.dtype == ref.dtype == np.float64
        assert np.array_equal(got, ref)
