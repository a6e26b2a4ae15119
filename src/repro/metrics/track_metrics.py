"""Track-level reconstruction metrics.

The end product of the pipeline is a set of track candidates (connected
components after edge pruning).  Following the TrackML / Exa.TrkX
convention, a candidate *matches* a truth particle under the
double-majority rule: more than half of the candidate's hits belong to
the particle, and the candidate contains more than half of the particle's
hits.  From the matching we report:

* **efficiency** — matched reconstructable particles / reconstructable particles;
* **fake rate** — candidates matching no particle / candidates;
* **duplicate rate** — extra candidates matching an already-matched particle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Sequence

import numpy as np

__all__ = ["TrackingScore", "match_tracks"]


@dataclass(frozen=True)
class TrackingScore:
    """Summary of candidate-vs-truth matching for one event."""

    #: ids of the reconstructable particles, and of those a candidate matched
    reconstructable: FrozenSet[int] = field(repr=False)
    matched: FrozenSet[int] = field(repr=False)
    num_candidates: int
    num_fakes: int
    num_duplicates: int

    @property
    def num_reconstructable(self) -> int:
        return len(self.reconstructable)

    @property
    def num_matched(self) -> int:
        return len(self.matched)

    @property
    def efficiency(self) -> float:
        return (
            self.num_matched / self.num_reconstructable
            if self.num_reconstructable
            else 0.0
        )

    @property
    def fake_rate(self) -> float:
        return self.num_fakes / self.num_candidates if self.num_candidates else 0.0

    @property
    def duplicate_rate(self) -> float:
        return (
            self.num_duplicates / self.num_candidates if self.num_candidates else 0.0
        )


def match_tracks(
    candidates: Sequence[np.ndarray],
    particle_ids: np.ndarray,
    min_hits: int = 3,
) -> TrackingScore:
    """Match track candidates to truth particles (double-majority rule).

    Parameters
    ----------
    candidates:
        Track candidates as arrays of hit indices (components of the
        pruned graph); candidates shorter than ``min_hits`` are ignored.
    particle_ids:
        ``(n,)`` truth particle id per hit (0 = noise).
    min_hits:
        Minimum hits for a particle to count as reconstructable and for a
        candidate to be scored.
    """
    particle_ids = np.asarray(particle_ids)
    pid_counts = np.bincount(particle_ids[particle_ids > 0]) if np.any(particle_ids > 0) else np.zeros(1, dtype=np.int64)
    reconstructable = set(np.flatnonzero(pid_counts >= min_hits).tolist())
    reconstructable.discard(0)

    matched = set()
    num_fakes = 0
    num_duplicates = 0
    scored = 0
    for cand in candidates:
        cand = np.asarray(cand)
        if cand.size < min_hits:
            continue
        scored += 1
        pids = particle_ids[cand]
        pids = pids[pids > 0]
        if pids.size == 0:
            num_fakes += 1
            continue
        values, counts = np.unique(pids, return_counts=True)
        best = int(values[np.argmax(counts)])
        best_count = int(counts.max())
        # double majority: candidate majority AND particle majority
        if (
            best_count * 2 > cand.size
            and best in reconstructable
            and best_count * 2 > pid_counts[best]
        ):
            if best in matched:
                num_duplicates += 1
            else:
                matched.add(best)
        else:
            num_fakes += 1

    return TrackingScore(
        reconstructable=frozenset(reconstructable),
        matched=frozenset(matched),
        num_candidates=scored,
        num_fakes=num_fakes,
        num_duplicates=num_duplicates,
    )
