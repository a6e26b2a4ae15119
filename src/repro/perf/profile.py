"""Profiling helpers (the guides' "no optimization without measuring").

:func:`profiled` wraps a code block in :mod:`cProfile` and returns the
hottest functions in a structured form, so performance work on the
samplers and the tensor engine starts from numbers rather than guesses.
"""

from __future__ import annotations

import ast
import cProfile
import pstats
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

__all__ = ["HotSpot", "ProfileReport", "profiled", "by_op"]


@dataclass(frozen=True)
class HotSpot:
    """One row of a profile: a function and its cost."""

    name: str
    calls: int
    total_seconds: float      # time inside the function itself
    cumulative_seconds: float  # including callees


@dataclass
class ProfileReport:
    """Collected profile of one block."""

    hotspots: List[HotSpot]

    def top(self, n: int = 10) -> List[HotSpot]:
        """The ``n`` hottest functions by self-time."""
        return self.hotspots[:n]

    def find(self, substring: str) -> List[HotSpot]:
        """Hotspots whose qualified name contains ``substring``."""
        return [h for h in self.hotspots if substring in h.name]

    def render(self, n: int = 10) -> List[str]:
        rows = [f"{'self [ms]':>10} | {'cum [ms]':>9} | {'calls':>7} | function"]
        for h in self.top(n):
            rows.append(
                f"{1e3 * h.total_seconds:>10.2f} | {1e3 * h.cumulative_seconds:>9.2f} | "
                f"{h.calls:>7} | {h.name}"
            )
        return rows


@contextmanager
def profiled() -> Iterator[ProfileReport]:
    """Profile the enclosed block.

    Example::

        with profiled() as report:
            sampler.sample_bulk(graph, batches, rng)
        print("\\n".join(report.render(5)))
    """
    profiler = cProfile.Profile()
    report = ProfileReport(hotspots=[])
    profiler.enable()
    try:
        yield report
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler)
        entries = []
        for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
            filename, line, name = func
            label = f"{filename}:{line}({name})" if line else name
            entries.append(
                HotSpot(
                    name=label,
                    calls=int(nc),
                    total_seconds=float(tt),
                    cumulative_seconds=float(ct),
                )
            )
        entries.sort(key=lambda h: -h.total_seconds)
        report.hotspots = entries


def by_op(report: ProfileReport) -> Dict[str, Tuple[float, float, int]]:
    """Fold a profile onto the autograd ops, hottest first.

    Returns ``{op: (forward_s, backward_s, forward calls)}``.  Forward is
    the cumulative time of each public function of
    :mod:`repro.tensor.ops`, backward that of the ``backward`` closures
    defined inside it (a closure is mapped to its op by source line).  An
    op composed of other ops (``checkpoint``, the pairwise losses) includes
    them.  Works on any :func:`profiled` report; nothing runs unless called.
    """
    from ..tensor import ops

    with open(ops.__file__) as fh:
        defs = [
            node for node in ast.parse(fh.read()).body
            if isinstance(node, ast.FunctionDef) and node.name in ops.__all__
        ]
    table: Dict[str, List[float]] = {}
    for spot in report.hotspots:
        match = re.fullmatch(r"(.*):(\d+)\((\w+)\)", spot.name)
        if match is None or match.group(1) != ops.__file__:
            continue
        line, name = int(match.group(2)), match.group(3)
        op = next((d for d in defs if d.lineno <= line <= d.end_lineno), None)
        if op is None:
            continue
        row = table.setdefault(op.name, [0.0, 0.0, 0])
        if line == op.lineno:  # the op's own frame
            row[0] += spot.cumulative_seconds
            row[2] += spot.calls
        elif name == "backward":
            row[1] += spot.cumulative_seconds
    ranked = sorted(table.items(), key=lambda kv: -(kv[1][0] + kv[1][1]))
    return {op: (fwd, bwd, int(calls)) for op, (fwd, bwd, calls) in ranked}
