"""Small shared pieces of the suite: output checks, paths, percentiles,
and the process hygiene of a run (no process outlives it)."""

from __future__ import annotations

import ctypes
import os
import resource
import signal
import time
from multiprocessing import resource_tracker
from typing import List, Sequence

import numpy as np

__all__ = [
    "SUITE_DIR", "REPO_ROOT", "OUT_DIR", "Checks", "percentile", "rss_mb", "set_up_repeatedly",
    "adopt_orphans", "stop_resource_tracker", "reap_children",
]

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
#: Everything the suite writes (ledgers, traces, temporary stores) goes
#: here — not benchmarks/results/, which ``make clean`` wipes.
OUT_DIR = os.path.join(SUITE_DIR, "out")


class Checks:
    """Output checks: each one is a counted operation of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"CHECK FAILED: {what}")
        return bool(ok)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process (or of its reaped children)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def set_up_repeatedly(make, times: int = 3):
    """Set the workload up ``times`` times; returns (the last inputs, every
    ``setup_s``).  ``setup_s`` is reported as their median."""
    inputs, seconds = None, []
    for _ in range(times):
        if inputs is not None:
            inputs.cleanup()
        inputs = make()
        seconds.append(inputs.timings["setup_s"])
    return inputs, seconds


# ----------------------------------------------------------------------
# process hygiene: a run stops every process it started and waits for it
# ----------------------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``): a grandchild whose parent exits first —
    a rank worker's helper, a resource tracker — is re-parented here
    instead of to init, so ``reap_children`` sees it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still reaped


def stop_resource_tracker() -> None:
    """End this process's multiprocessing resource tracker and wait for it.

    ``shared_memory`` (the proc backend's rings) starts the tracker as a
    child that lives until its pipe closes — i.e. until *after* this
    process has exited, unless it is stopped here."""
    try:
        resource_tracker._resource_tracker._stop()
    except (OSError, AttributeError, ChildProcessError):
        pass


def _children() -> List[int]:
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def reap_children(grace: float = 5.0) -> int:
    """Wait until this process has no child left; returns how many were
    still alive after ``grace`` seconds and had to be killed.  Killing a
    child re-parents its own children here (``adopt_orphans``), so the
    loop ends only when the whole tree is gone."""
    stop_resource_tracker()
    deadline = time.monotonic() + grace
    killed = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                    killed.add(child)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)
