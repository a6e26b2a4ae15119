"""Judge two ledgers: ``python benchmarks/suite/compare.py A.json B.json``.

``A`` is the parent, ``B`` the change.  For every (end-to-end metric,
workload) row the bound from ``BENCHMARK.json`` is applied to the
medians; a row is *unresolved*, not unchanged, when the run-to-run
spread (inter-quartile distance over the median, the wider of the two
sides) exceeds the bound — unless every run of ``B`` reads better than
every run of ``A`` — or when a side has fewer than three runs.  A *gain*
is claimed only by the paired rule: at least ten pairs (run ``i`` of A
against run ``i`` of B; collect them alternating which side goes first),
B winning at least nine tenths of them with ties counting for neither,
and the medians further apart than A's own inter-quartile distance.
Every ratio is printed with its base.

Per-layer rows (traced run) are informational, except the ones
``BENCHMARK.json`` cannot bound (its bounds are relative, on metrics that
are never 0) and this file therefore gates itself: the quality rows in
``QUALITY`` (tracking efficiency and fake rate, SLO share, final loss),
the exact counts (every ``count`` row not in ``TIMING_COUNTS`` must read
the same on both sides for the same seed) and the input digests.  Exit
status 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Fewer runs than this on a side give no spread to judge against: on the
#: defining box single runs of one commit differ by up to 45 %.
MIN_RUNS = 3

#: Per-layer rows gated here: (bound on the median, is it relative to A,
#: does the value repeat exactly per seed).  ``serve.slo_share`` follows
#: measured service times, so the spread rule applies to it.
QUALITY = {
    "metrics.track_efficiency": (0.01, False, True),
    "metrics.track_fake_rate": (0.01, False, True),
    "nn.final_loss": (0.02, True, True),
    "serve.slo_share": (0.03, False, False),
}
#: ``count`` rows that follow measured service times (which requests share
#: a micro-batch on the SimClock, what is shed at ``rate_hi``) and so are
#: not exact per seed; every other count must repeat exactly.
TIMING_COUNTS = {
    "serve.batches", "serve.batch_size_mean", "serve.shed", "serve.degraded",
    "serve.failed", "trace.spans",
}


def load_runs(path: str) -> Dict[Tuple[str, int], List[dict]]:
    with open(path) as fh:
        ledger = json.load(fh)
    grouped: Dict[Tuple[str, int], List[dict]] = {}
    for run in ledger["runs"]:
        grouped.setdefault((run["workload"], run["trace"]), []).append(run)
    return grouped


def values(runs: List[dict], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def by_seed(runs: List[dict]) -> Dict[int, List[dict]]:
    grouped: Dict[int, List[dict]] = {}
    for run in runs:
        grouped.setdefault(run["seed"], []).append(run)
    return grouped


def digests(runs: List[dict]) -> set:
    return {json.dumps(r["detail"]["digest"], sort_keys=True) for r in runs}


def iqr(xs: List[float]) -> float:
    """Distance between the quartiles (the range when there are too few)."""
    if len(xs) < 2:
        return 0.0
    if len(xs) < 4:
        return max(xs) - min(xs)
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def judge(
    a: List[float], b: List[float], better: str, bound: float,
    relative: bool = True, exact: bool = False,
) -> Tuple[str, str]:
    """Status of one row and the sentence that explains it.

    ``relative``: the bound is a share of A's median (else absolute).
    ``exact``: the value repeats exactly per seed, so even a single run a
    side is judged."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    base_a = abs(med_a) if relative and med_a else 1.0
    base_b = abs(med_b) if relative and med_b else 1.0
    worse = sign * (med_b - med_a) / base_a  # > 0: B is worse
    spread = max(iqr(a) / base_a, iqr(b) / base_b)
    ratio = f"B/A = {med_b / med_a:.4f} (base A = {med_a:.6g})" if med_a else f"A = 0, B = {med_b:.6g}"
    limit = f"bound {bound:g}{'' if relative else ' abs'}"

    def b_wins(x: float, y: float) -> bool:
        return sign * (y - x) < 0

    pairs = list(zip(a, b))
    decided = [(x, y) for x, y in pairs if x != y]
    wins = sum(1 for x, y in decided if b_wins(x, y))
    if (
        len(pairs) >= MIN_PAIRS
        and decided
        and wins >= WIN_SHARE * len(pairs)
        and abs(med_b - med_a) > iqr(a)
    ):
        return "gain", f"{ratio}; B wins {wins}/{len(pairs)} pairs, gap > A's IQR {iqr(a):.4g}"
    all_better = all(b_wins(x, y) for x in a for y in b)
    if not exact and a != b and min(len(a), len(b)) < MIN_RUNS:
        return "unresolved", f"{ratio}; fewer than {MIN_RUNS} runs on a side: no spread to judge by"
    if spread > bound and not all_better:
        return "unresolved", f"{ratio}; spread {spread:.3f} > {limit}"
    if worse > bound:
        return "REGRESSION", f"{ratio}; worse by {worse:.4f} > {limit}"
    note = "" if len(pairs) >= MIN_PAIRS else f" ({len(pairs)} pairs: too few to claim a gain)"
    return "ok", f"{ratio}; worse by {worse:+.4f}, {limit}{note}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        schema = json.load(fh)
    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)

    regressions = 0
    print("end to end (tracing off) — bound applied per (metric, workload)")
    for w in schema["workloads"]:
        a, b = a_runs.get((w["name"], 0), []), b_runs.get((w["name"], 0), [])
        if not a or not b:
            print(f"  {w['name']}: missing on {'A' if not a else 'B'}")
            regressions += 1
            continue
        failed_a = sum(r["failed"] for r in a)
        failed_b = sum(r["failed"] for r in b)
        print(f"  {w['name']}  (A: {len(a)} runs, {failed_a} failed ops; B: {len(b)} runs, {failed_b} failed ops)")
        if failed_b > failed_a:
            print("    REGRESSION   more operations failed than at the parent")
            regressions += 1
        for spec in schema["end_to_end"]:
            va, vb = values(a, spec["name"]), values(b, spec["name"])
            status, why = judge(va, vb, spec["better"], spec["bound"])
            regressions += status == "REGRESSION"
            print(f"    {status:11s}  {spec['name']:18s} [{spec['unit']}] {why}")

    print("per layer (traced run) — medians; quality rows, exact counts and digests are gated")
    for w in schema["workloads"]:
        a, b = a_runs.get((w["name"], 1), []), b_runs.get((w["name"], 1), [])
        if not a or not b:
            continue
        print(f"  {w['name']}")
        if digests(a) != digests(b):
            print("    INPUT DIGEST DIFFERS: the two sides did not run the same load")
            regressions += 1
        # like with like: exact rows depend on the seed
        by_seed_a, by_seed_b = by_seed(a), by_seed(b)
        shared = sorted(set(by_seed_a) & set(by_seed_b))
        if shared:
            a = [r for seed in shared for r in by_seed_a[seed]]
            b = [r for seed in shared for r in by_seed_b[seed]]
        for spec in schema["per_layer"]:
            name = spec["name"]
            va, vb = values(a, name), values(b, name)
            if not va or not vb or not (any(va) or any(vb)):
                continue
            if name in QUALITY:
                bound, relative, exact = QUALITY[name]
                status, why = judge(va, vb, spec["better"], bound, relative, exact)
                regressions += status == "REGRESSION"
                print(f"    {name:34s} [{spec['unit']}] gated: {status}  {why}")
                continue
            med_a, med_b = statistics.median(va), statistics.median(vb)
            ratio = f"B/A = {med_b / med_a:.4f}" if med_a else "B/A = n/a"
            flag = ""
            if spec["unit"] == "count" and name not in TIMING_COUNTS:
                differing = [
                    seed for seed in shared
                    if set(values(by_seed_a[seed], name)) != set(values(by_seed_b[seed], name))
                ]
                if differing:
                    flag = f"  REGRESSION: exact count differs on seed(s) {differing}"
                    regressions += 1
            print(f"    {name:34s} [{spec['unit']}] A = {med_a:.6g}  B = {med_b:.6g}  {ratio} (base A){flag}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
