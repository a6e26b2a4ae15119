"""Measure one workload — the entry point ``BENCHMARK.json`` names.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics (telemetry and tracing off,
public entry points only); ``--trace 1`` prints the per-layer metrics of
a traced run.  Every metric is printed by name with its unit, output
checks run in the same process, and the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
non-zero when an operation or an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

# One busy thread per process: the workloads already use both cores
# (trainer + prefetch thread, or two rank workers), and BLAS pools make
# timings depend on what else the machine runs.  Must precede numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
for _path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.suite.harness import adopt_orphans, reap_children  # noqa: E402


def load_schema() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (metrics, checks, ops, detail)."""
    from benchmarks.suite import serve_bench, train_bench
    from benchmarks.suite.workloads import TrainWorkload, workload

    w = workload(name, smoke=smoke)
    bench = train_bench if isinstance(w, TrainWorkload) else serve_bench
    if trace:
        return bench.run_traced(w, seed, seconds)
    return bench.run_end_to_end(w, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizing (the suite's own test)")
    parser.add_argument("--detail", default=None, help="also write digests/samples/spans here")
    args = parser.parse_args(argv)

    schema = load_schema()
    seconds = args.seconds if args.seconds is not None else float(schema["run_seconds"])
    metrics, checks, ops, detail = measure(
        args.workload, args.seed, seconds, bool(args.trace), smoke=args.smoke
    )

    # rank workers and the resource tracker: all ended by now
    leftover = reap_children()
    checks.check(leftover == 0, f"{leftover} processes outlived the measurement and were killed")

    # the event pools are frozen, so the digest of the generated inputs
    # must match on every run: parent and change provably ran one load
    if not args.smoke:
        try:
            with open(os.path.join(SUITE_DIR, "expected_digests.json")) as fh:
                expected = json.load(fh).get(args.workload)
        except OSError:
            expected = None
        checks.check(
            detail["digest"] == expected,
            f"input digest {detail['digest']} differs from the recorded {expected}",
        )

    wanted = schema["per_layer" if args.trace else "end_to_end"]
    samples = detail.get("samples", {})
    out = {}
    for spec in wanted:
        # a layer this workload does not exercise reads 0
        value = float(metrics.get(spec["name"], 0.0))
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        spread = ""
        if spec["name"] in samples:  # the value is the median of these
            xs = samples[spec["name"]]
            spread = f"  (min {min(xs):.6f}  max {max(xs):.6f}  n {len(xs)})"
        print(f"{spec['name']:36s} {value:16.6f} {spec['unit']}{spread}")
    extra = sorted(set(metrics) - {s["name"] for s in wanted})
    if extra:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {extra}")
    for note in detail.get("notes", ()):
        print(f"# {note}")

    attempted = ops + checks.attempted
    failed = detail.get("failed_ops", 0) + checks.failed
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": out,
    }
    if args.detail:
        detail.update(workload=args.workload, seed=args.seed, seconds=seconds,
                      trace=args.trace, smoke=args.smoke, result=result,
                      check_failures=checks.messages)
        os.makedirs(os.path.dirname(os.path.abspath(args.detail)), exist_ok=True)
        with open(args.detail, "w") as fh:
            json.dump(detail, fh)
    print(json.dumps(result))
    return 1 if failed else 0


def _terminated(signum, _frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through the ``finally`` below


if __name__ == "__main__":
    # No process this run starts may outlive it, on any path out.
    adopt_orphans()
    signal.signal(signal.SIGTERM, _terminated)
    try:
        status = main()
    finally:
        reap_children()
    sys.exit(status)
