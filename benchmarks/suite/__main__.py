"""Run every workload and write one versioned ledger JSON.

    PYTHONPATH=src python -m benchmarks.suite --seed S

Each workload runs in a fresh child process (``run.py``), one at a time,
first untraced (end-to-end metrics) then traced (per-layer metrics);
the child pins BLAS threads to 1 in its own environment.  Every metric
is printed by name with its unit; output checks and the input digest are
verified; the ledger lands in ``benchmarks/suite/out/BENCH_<n>.json``
(the roadmap's ``BENCH_<n>.json``).  Exit status is non-zero when any
check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

from .harness import OUT_DIR, REPO_ROOT, SUITE_DIR

SCHEMA_VERSION = 1
if os.path.join(REPO_ROOT, "src") not in sys.path:  # works without PYTHONPATH=src too
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def fingerprint(smoke: bool) -> dict:
    """Where and on what the numbers were taken."""
    import numpy
    import scipy

    from .workloads import WORKLOADS, recipe_hash, workload

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "rb") as fh:
        schema_hash = hashlib.sha256(fh.read()).hexdigest()[:16]
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "blas_threads": 1,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "benchmark_json": schema_hash,
        "recipe_hash": {name: recipe_hash(workload(name, smoke)) for name in WORKLOADS},
        "smoke": smoke,
    }


def _next_ledger_path() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    taken = [
        int(name[6:-5])
        for name in os.listdir(OUT_DIR)
        if name.startswith("BENCH_") and name.endswith(".json") and name[6:-5].isdigit()
    ]
    return os.path.join(OUT_DIR, f"BENCH_{max(taken, default=0) + 1}.json")


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One ``run.py`` invocation in a fresh process; returns its detail."""
    os.makedirs(OUT_DIR, exist_ok=True)
    fd, detail_path = tempfile.mkstemp(prefix="detail-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    command = [
        sys.executable, os.path.join(SUITE_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--detail", detail_path,
    ]
    if smoke:
        command.append("--smoke")
    t0 = time.perf_counter()
    try:
        # run.py pins BLAS to one thread itself, before it imports numpy
        proc = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=900)
        # exit 1 with a detail file = failed checks, which the ledger records
        if proc.returncode not in (0, 1) or not os.path.getsize(detail_path):
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
        for line in proc.stdout.splitlines()[:-1]:  # the last line is the JSON result
            print(f"    {line}")
        with open(detail_path) as fh:
            detail = json.load(fh)
    finally:
        os.unlink(detail_path)
    detail["invocation_s"] = time.perf_counter() - t0
    return detail


def record_digests() -> int:
    """Rewrite ``expected_digests.json`` from freshly generated inputs."""
    from . import serve_bench, train_bench
    from .workloads import WORKLOADS, TrainWorkload

    digests = {}
    for name, w in WORKLOADS.items():
        inputs = (train_bench if isinstance(w, TrainWorkload) else serve_bench).set_up(w)
        digests[name] = inputs.digest()
        inputs.cleanup()
        print(f"{name}: {digests[name]}")
    with open(os.path.join(SUITE_DIR, "expected_digests.json"), "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload (compare.py wants >= 10)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizing, seconds=1 (the suite's own test)")
    parser.add_argument("--out", default=None, help="ledger path (default: out/BENCH_<n>.json)")
    parser.add_argument("--append", action="store_true", help="add the runs to an existing --out ledger")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite expected_digests.json and exit (benchmark-definition changes only)")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        schema = json.load(fh)
    names = [w["name"] for w in schema["workloads"]]
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else float(schema["run_seconds"]))

    out_path = args.out or _next_ledger_path()
    ledger = {"schema_version": SCHEMA_VERSION, "fingerprint": fingerprint(args.smoke), "runs": []}
    if args.append and os.path.exists(out_path):
        with open(out_path) as fh:
            ledger = json.load(fh)

    failures = 0
    digests = {}
    for repeat in range(args.repeats):
        for name in names:
            for trace in (0, 1):
                print(f"== {name}  seed {args.seed}  {'traced (per layer)' if trace else 'untraced (end to end)'}")
                detail = run_child(name, args.seed, seconds, trace, args.smoke)
                spans = detail.pop("spans", None)
                if spans is not None:
                    stem = os.path.splitext(out_path)[0]
                    with open(f"{stem}.{name}.spans.json", "w") as fh:
                        json.dump(spans, fh)
                result = detail.pop("result")
                run = {
                    "workload": name, "seed": args.seed, "seconds": seconds, "trace": trace,
                    "repeat": repeat, **result, "detail": detail,
                }
                ledger["runs"].append(run)
                failures += result["failed"]
                if digests.setdefault(name, detail["digest"]) != detail["digest"]:
                    print(f"CHECK FAILED: {name}: input digest changed between runs")
                    failures += 1
                for message in detail.get("check_failures", ()):
                    print(f"    FAILED: {message}")

    with open(out_path, "w") as fh:
        json.dump(ledger, fh, indent=1)
    print(f"ledger: {os.path.relpath(out_path, REPO_ROOT)}  "
          f"({len(ledger['runs'])} runs, {failures} failed operations)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
