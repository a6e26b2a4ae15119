"""A ``FaultPlan`` shared by concurrent callers: one attempt table behind
one lock, so every attempt draws a distinct index and a scheduled fault
fires exactly as often as it says."""

import re
import sys
import threading

from repro.faults import FaultPlan, StageError, StageFault

THREADS, CALLS = 4, 200


def _hammer(call):
    """``call()`` THREADS × CALLS times from THREADS threads at once."""
    start = threading.Barrier(THREADS)

    def run():
        start.wait()
        for _ in range(CALLS):
            call()

    threads = [threading.Thread(target=run) for _ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often: an unlocked counter races
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_stage_attempts_see_every_index_once():
    # a fault on every attempt: each error names the index its call drew
    plan = FaultPlan(stage_faults=[StageFault("gnn", 0, times=THREADS * CALLS)])
    seen, record = [], threading.Lock()

    def call():
        try:
            plan.before_stage("gnn")
        except StageError as exc:
            with record:
                seen.append(int(re.search(r"attempt (\d+)", str(exc)).group(1)))

    _hammer(call)
    assert sorted(seen) == list(range(THREADS * CALLS))


def test_stage_fault_fires_exactly_times_across_threads():
    plan = FaultPlan(stage_faults=[StageFault("gnn", at_call=50, times=7)])
    fired, record = [], threading.Lock()

    def call():
        try:
            plan.before_stage("gnn")
        except StageError:
            with record:
                fired.append(1)

    _hammer(call)
    assert len(fired) == 7
    assert plan._attempts == {"stage:gnn": THREADS * CALLS}


def test_lock_stays_out_of_repr_and_equality():
    a, b = FaultPlan(), FaultPlan()
    assert a == b and "lock" not in repr(a)
    a.before_checkpoint_write("x.npz")
    assert a != b  # the attempt table still compares
