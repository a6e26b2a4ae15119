#!/usr/bin/env python
"""End-to-end smoke suites: the checks tier-1 cannot make.

Usage::

    python scripts/validate.py --list
    python scripts/validate.py <suite> [suite options]     # = make <suite>-smoke

Keep rule: a step lives here only if the tier-1 suite (``pytest``)
cannot make it — real-process chaos at the runner's core count, the
store's RSS-growth bound, the scenario matrix run twice and compared byte
for byte, the fused message path's speedup bound, and operator CLI paths
``tests/test_cli.py`` does not drive.  Timed paths end to end are judged
by the perf ledger (``benchmarks/suite``), not here.  Everything else is
a tier-1 test; EXPERIMENTS.md ("Retired smoke steps") maps each step
that left to the test that makes it.  Each suite's docstring names its
steps and exits non-zero on the first violation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.pipeline import GNNTrainConfig  # noqa: E402

SUITES = {}


def suite(name):
    def register(fn):
        SUITES[name] = fn
        return fn

    return register


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def ok(message: str) -> None:
    print(f"ok: {message}")


def repro(*argv) -> None:
    """``python -m repro.cli argv`` — the operator's entry point — from
    the repo root with ``src`` importable."""
    cmd = (sys.executable, "-m", "repro.cli", *argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    print("$ " + " ".join(cmd), flush=True)
    returncode = subprocess.run(cmd, cwd=ROOT, env=env).returncode
    if returncode:
        fail(f"`{' '.join(cmd)}` exited {returncode}")


# -- shared fixtures -----------------------------------------------------
#: The tiny GNN both chaos suites train.
TINY_GNN = GNNTrainConfig(
    mode="bulk", epochs=2, batch_size=32, hidden=8, num_layers=2,
    depth=2, fanout=3, seed=0,
)


def sigkill_chaos_args(argv):
    parser = argparse.ArgumentParser(prog="validate.py <elastic|obs>")
    parser.add_argument("--world", type=int, default=4, help="world size")
    parser.add_argument("--rank", type=int, default=2, help="rank to SIGKILL")
    parser.add_argument(
        "--at-call", type=int, default=5, help="0-based collective attempt"
    )
    args = parser.parse_args(argv)
    if not 0 <= args.rank < args.world:
        fail(f"--rank {args.rank} outside world of {args.world}")
    return args


def train_with_sigkill(args):
    """Proc-backend training with worker ``rank`` SIGKILLed mid-epoch."""
    from repro.detector import dataset_config, make_dataset
    from repro.faults import FaultPlan, ProcessFault
    from repro.pipeline import train_gnn

    dataset = make_dataset(dataset_config("ex3_like").with_sizes(2, 1, 0))
    plan = FaultPlan(
        process_faults=[
            ProcessFault(at_call=args.at_call, rank=args.rank, kind="sigkill")
        ]
    )
    result = train_gnn(
        dataset.train,
        dataset.val,
        TINY_GNN.replace(world_size=args.world, backend="proc"),
        fault_plan=plan,
    )
    if result.comm_stats.rank_failures != [args.rank]:
        fail(
            "proc backend did not evict exactly the killed rank: "
            f"{result.comm_stats.rank_failures}"
        )
    return dataset, result


# -- elastic -------------------------------------------------------------
@suite("elastic")
def elastic_suite(argv) -> None:
    """Real-process chaos: SIGKILL a worker process mid-epoch on the proc
    backend at the runner's core count (world 4 by default); the
    supervisor must evict the rank, resync the survivors and finish, and a
    sim-backend replay of the same failure (a permanent ``CommFault`` at
    the same attempt) must leave **bit-identical** survivor weights."""
    from repro.faults import CommFault, FaultPlan
    from repro.pipeline import train_gnn

    args = sigkill_chaos_args(argv)
    print(
        f"elastic chaos: SIGKILL rank {args.rank} at collective attempt "
        f"{args.at_call}, world={args.world}"
    )
    dataset, res_proc = train_with_sigkill(args)
    res_sim = train_gnn(
        dataset.train,
        dataset.val,
        TINY_GNN.replace(world_size=args.world, backend="sim"),
        fault_plan=FaultPlan(
            comm_faults=[
                CommFault(at_call=args.at_call, rank=args.rank, transient=False)
            ]
        ),
    )
    print(f"proc backend evicted ranks: {res_proc.comm_stats.rank_failures}")
    print(f"sim replay evicted ranks:   {res_sim.comm_stats.rank_failures}")
    if res_sim.comm_stats.rank_failures != [args.rank]:
        fail(
            "sim replay did not evict exactly the faulted rank: "
            f"{res_sim.comm_stats.rank_failures}"
        )
    state_sim, state_proc = res_sim.model.state_dict(), res_proc.model.state_dict()
    differing = [key for key in state_sim if not np.array_equal(state_sim[key], state_proc[key])]
    if differing:
        fail(f"backends after recovery: {len(differing)} tensor(s) differ, e.g. {differing[:3]}")
    ok(
        f"survivors' weights bit-identical across backends "
        f"({len(state_sim)} parameter tensors), final train loss "
        f"{res_proc.history.records[-1].train_loss:.6f}"
    )


# -- obs -----------------------------------------------------------------
@suite("obs")
def obs_suite(argv) -> None:
    """Real-process chaos seen in one merged Chrome trace: a lane per
    surviving worker rank, the collective-step spans, and the
    supervisor's death / eviction / resync events."""
    args = sigkill_chaos_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro_obs_") as tmp:
        _check_cross_process_trace(tmp, args)


def _check_cross_process_trace(tmp: str, args) -> None:
    from repro.obs import RunTelemetry, use_telemetry

    print(f"proc-backend trace: SIGKILL rank {args.rank} at attempt {args.at_call}")
    telemetry = RunTelemetry.for_run(seed=0, world_size=args.world)
    with use_telemetry(telemetry):
        train_with_sigkill(args)
    trace_path = os.path.join(tmp, "proc_trace.json")
    telemetry.write_trace(trace_path)
    with open(trace_path) as fh:
        events = json.load(fh)["traceEvents"]

    lane_names = {
        ev["pid"]: ev["args"]["name"]
        for ev in events
        if ev.get("ph") == "M" and ev.get("name") == "process_name"
    }
    worker_pids = {pid for pid in lane_names if pid != 0}
    survivors = args.world - 1
    if len(worker_pids) < survivors:
        fail(
            f"expected >= {survivors} worker lanes in the merged trace, got "
            f"{sorted(lane_names.values())}"
        )
    if lane_names.get(0) != "repro":
        fail(f"driver lane (pid 0) missing or renamed: {lane_names}")

    step_spans = {"comm.worker.allreduce", "comm.worker.reduce",
                  "comm.worker.copy", "comm.worker.barrier_wait"}
    pids_with_steps = {
        ev["pid"]
        for ev in events
        if ev.get("ph") == "X" and ev["name"] in step_spans and ev["pid"] != 0
    }
    if len(pids_with_steps) < survivors:
        fail(
            f"collective-step spans present in only {len(pids_with_steps)} "
            f"worker lanes (need >= {survivors})"
        )
    missing = step_spans - {ev["name"] for ev in events if ev.get("ph") == "X"}
    if missing:
        fail(f"missing collective-step span kinds: {sorted(missing)}")

    instant = {ev["name"] for ev in events if ev.get("ph") == "i"}
    for needed in ("comm.supervisor.rank_death", "comm.supervisor.rank_evicted",
                   "comm.supervisor.resync_broadcast", "comm.rank_evicted",
                   "comm.resync"):
        if needed not in instant:
            fail(f"supervisor event {needed!r} missing from trace "
                 f"(instants present: {sorted(instant)})")
    counters = telemetry.metrics.to_dict()["counters"]
    for name in ("comm.supervisor.rank_death", "comm.supervisor.rank_evicted",
                 "comm.supervisor.resync_broadcast", "comm.worker.heartbeats",
                 "comm.worker.collectives"):
        if counters.get(name, 0) <= 0:
            fail(f"counter {name!r} missing or zero (have {sorted(counters)})")
    ok(
        f"{len(worker_pids)} worker lanes, "
        f"{sum(1 for ev in events if ev.get('ph') == 'X' and ev['pid'] != 0)} "
        f"worker spans, supervisor events + counters present"
    )


# -- kernels -------------------------------------------------------------
@suite("kernels")
def kernels_suite(argv) -> None:
    """The kernel perf bound: the fused message path measured at least
    1.5x faster than the hand-rolled pre-fusion path, after a sanity
    check that the two agree."""
    parser = argparse.ArgumentParser(prog="validate.py kernels")
    # Defaults mirror the Fig-3 bulk-ShaDow batch shapes (hidden 32: the
    # edge input is the residual pair (Yˡ, Y⁰), two (m, 32) halves, the
    # vertex input the pair (Xˡ, X⁰), two (n, 32) halves), where the old path paid
    # the most for gathers, concats, and np.add.at dispatch.  At module scale
    # (m ~ 10^5) the GEMMs dominate and the ratio shrinks toward 1.
    parser.add_argument("--edges", type=int, default=6_000)
    parser.add_argument("--nodes", type=int, default=1_500)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)

    _check_speedup(np.random.default_rng(0), args.edges, args.nodes, args.repeats)


def _edge_case(rng, m, n, e=64, f=64, h=32, dtype=np.float64):
    """``(y, x, rows, cols, w1, w2)``; ``y`` and ``x`` are the residual
    pairs: two ``(m, e/2)`` and two ``(n, f/2)`` halves, the call shape
    the IGNN hands the fused ops."""
    from repro.tensor import Tensor

    y, x = (
        tuple(
            Tensor(np.ascontiguousarray(half), requires_grad=True)
            for half in np.hsplit(rng.normal(size=shape).astype(dtype), 2)
        )
        for shape in ((m, e), (n, f))
    )
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    w1 = Tensor(rng.normal(size=(e + 2 * f, h)).astype(dtype), requires_grad=True)
    w2 = Tensor(rng.normal(size=(2 * h + f, h)).astype(dtype), requires_grad=True)
    return y, x, rows, cols, w1, w2


def _params(tensors):
    y, x, _, _, w1, w2 = tensors
    return y + x + (w1, w2)


def _fused_pass(y, x, rows, cols, w1, w2):
    from repro.tensor import ops

    msg = ops.relu(ops.gather_concat_matmul(y, x, rows, cols, w1))
    out = ops.scatter_mlp_input(msg, rows, cols, x, w2)
    ops.sum(out).backward()
    return out.data


def _legacy_pass(y, x, rows, cols, w1, w2):
    """The pre-fusion message path, hand-rolled: fancy-index gathers, a
    materialised concat, ``np.add.at`` scatters, fresh temporaries for
    every intermediate — forward *and* backward (grad of sum())."""
    yd = np.concatenate([half.data for half in y], axis=1)
    xd = np.concatenate([half.data for half in x], axis=1)
    W1, W2 = w1.data, w2.data
    e, f, h = yd.shape[1], xd.shape[1], W1.shape[1]
    n = xd.shape[0]
    # forward
    cat = np.concatenate([yd, xd[rows], xd[cols]], axis=1)
    pre = cat @ W1
    msg = np.maximum(pre, 0.0)
    m_src = np.zeros((n, h), dtype=msg.dtype)
    np.add.at(m_src, rows, msg)
    m_dst = np.zeros((n, h), dtype=msg.dtype)
    np.add.at(m_dst, cols, msg)
    agg = np.concatenate([m_src, m_dst, xd], axis=1)
    out = agg @ W2
    # backward from grad = ones(out.shape)
    grad = np.ones_like(out)
    g_agg = grad @ W2.T
    g_w2 = agg.T @ grad
    g_msg = g_agg[:, :h][rows] + g_agg[:, h : 2 * h][cols]
    g_msg *= pre > 0
    g_cat = g_msg @ W1.T
    g_w1 = cat.T @ g_msg
    g_y = np.hsplit(g_cat[:, :e], len(y))
    g_x = np.array(g_agg[:, 2 * h :])
    np.add.at(g_x, rows, g_cat[:, e : e + f])
    np.add.at(g_x, cols, g_cat[:, e + f :])
    return out, (*g_y, *np.hsplit(g_x, len(x)), g_w1, g_w2)


def _check_speedup(rng, m: int, n: int, repeats: int) -> None:
    from repro.tensor.kernels import ScatterPlan

    tensors = _edge_case(rng, m=m, n=n, dtype=np.float32)
    y, x, rows, cols, w1, w2 = tensors
    # the product's IGNN builds a graph's scatter plans once
    # (``EventGraph.plans``), so the fused pass is timed on prebuilt plans;
    # the legacy path indexes with the bare arrays
    planned = (y, x, ScatterPlan(rows), ScatterPlan(cols), w1, w2)
    # sanity: the legacy reference must agree with the fused path before
    # its timing means anything
    _fused_pass(*planned)
    _, legacy_grads = _legacy_pass(*tensors)
    for g, p in zip(legacy_grads, _params(tensors)):
        if not np.allclose(g, p.grad, rtol=1e-3, atol=1e-3):
            fail("legacy reference pass diverges from the fused path")

    def best_of(fn, args) -> float:
        times = []
        for _ in range(repeats):
            for p in _params(tensors):
                p.grad = None
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_fused = best_of(_fused_pass, planned)
    t_legacy = best_of(_legacy_pass, tensors)
    speedup = t_legacy / t_fused
    print(
        f"message path (m={m}, n={n}): legacy {t_legacy * 1e3:.1f} ms, "
        f"fused {t_fused * 1e3:.1f} ms -> {speedup:.2f}x"
    )
    # 1.5x is the smoke floor: typical runs measure 2-3x, but best-of
    # timing on a loaded CI box jitters; epoch time end to end is judged
    # by the perf ledger's training workloads instead.
    if speedup < 1.5:
        fail(f"fused message path speedup {speedup:.2f}x < 1.5x")
    ok("speedup")


# -- store ---------------------------------------------------------------
@suite("store")
def store_suite(argv) -> None:
    """The store's RSS-growth bound — streamed epochs over a dataset >= 4x
    the resident-byte budget grow the process's RSS by at most the budget
    — and the operator's ``repro store ingest`` + ``verify`` round trip."""
    from repro.detector import dataset_config
    from repro.store import ingest_simulated

    parser = argparse.ArgumentParser(prog="validate.py store")
    parser.add_argument("--budget-kb", type=int, default=96)
    parser.add_argument("--epochs", type=int, default=3)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="validate_store_") as root:
        store_dir = os.path.join(root, "dataset_store")
        cfg = dataset_config("tiny").with_sizes(28, 2, 0)
        report = ingest_simulated(cfg, store_dir, max_shard_bytes=48 * 1024)
        ok(
            f"ingested {report.ingested} simulated event(s) into "
            f"{report.shards} shard(s) ({report.bytes_written} bytes)"
        )
        _check_rss_growth(store_dir, args.budget_kb * 1024, args.epochs)
        cli_store = os.path.join(root, "cli_store")
        repro(
            "store", "ingest", "--dataset", "tiny", "--out", cli_store,
            "--shard-mb", "0.125", "--overwrite",
        )
        repro("store", "verify", cli_store)


def _rss_bytes() -> int:
    """Resident set size from /proc/self/statm (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _check_rss_growth(store_dir: str, budget: int, epochs: int) -> None:
    from repro.store import EventStore

    with EventStore(store_dir, budget_bytes=budget) as store:
        total = store.describe()["bytes"]
        if total < 4 * budget:
            fail(
                f"dataset too small for the bar: {total} bytes vs "
                f"4x budget {4 * budget}"
            )
        for handle in store.handles():  # warmup epoch: allocator settles
            handle.materialize()
        rss0 = _rss_bytes()
        for _ in range(epochs):
            for handle in store.handles():
                handle.materialize()
        growth = _rss_bytes() - rss0
        if store.stats.unmaps == 0:
            fail("LRU never evicted: the budget was not exercised")
        if growth > budget:
            fail(
                f"RSS grew {growth} bytes over {epochs} streamed epochs — "
                f"more than the {budget}-byte budget"
            )
        ok(
            f"dataset {total} bytes >= 4x the {budget}-byte budget; "
            f"{epochs} streamed epochs: RSS growth {growth} bytes, "
            f"{store.stats.unmaps} eviction(s)"
        )


# -- scenarios -----------------------------------------------------------
@suite("scenarios")
def scenarios_suite(argv) -> None:
    """The whole chaos matrix, run twice: every scenario clears its
    physics-metric and behavioural floors, and the two runs produce
    byte-identical reports (modulo the timestamp)."""
    from repro.scenarios import build_report, get_matrix, render_report, run_matrix, strip_volatile

    parser = argparse.ArgumentParser(prog="validate.py scenarios")
    parser.add_argument("--matrix", default="smoke")
    matrix = get_matrix(parser.parse_args(argv).matrix)

    with tempfile.TemporaryDirectory(prefix="validate_scenarios_") as root:
        blobs = []
        for tag in ("run_a", "run_b"):
            doc = build_report(matrix.name, run_matrix(matrix, os.path.join(root, tag)))
            if doc["summary"]["failed"]:
                print(render_report(doc), file=sys.stderr)
                fail(f"{doc['summary']['failed']} scenario(s) violated their floors")
            ok(
                f"{tag}: {doc['summary']['passed']}/{doc['summary']['total']} "
                "scenarios passed their floors"
            )
            blobs.append(json.dumps(strip_volatile(doc), sort_keys=True))
        if blobs[0] != blobs[1]:
            fail("two matrix runs produced different reports (nondeterminism)")
        ok(f"two runs byte-identical modulo timestamp ({len(blobs[0])} bytes)")


# ------------------------------------------------------------------------
def main(argv) -> int:
    if argv == ["--list"]:
        print("\n".join(SUITES))
        return 0
    if not argv or argv[0] not in SUITES:
        print(__doc__)
        print("suites: " + ", ".join(SUITES))
        return 2
    SUITES[argv[0]](argv[1:])
    print(f"validate {argv[0]}: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
