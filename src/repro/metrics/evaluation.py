"""Batch evaluation of a fitted pipeline over event collections.

Consolidates the matching/fitting bookkeeping the analysis scripts need:
aggregate tracking scores, pT-binned efficiency, and helix-fit pT
resolution, from one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .curves import BinnedEfficiency, binned_efficiency
from .track_metrics import TrackingScore, match_tracks

__all__ = ["TrackingEvaluation", "evaluate_tracking"]

DEFAULT_PT_EDGES = (0.5, 1.0, 1.5, 2.5, 4.0, 10.0)


@dataclass
class TrackingEvaluation:
    """Aggregated reconstruction quality over a set of events."""

    per_event: List[TrackingScore]
    pt_efficiency: Optional[BinnedEfficiency]
    pt_residuals: np.ndarray

    @property
    def efficiency(self) -> float:
        """Matched / reconstructable, pooled over events."""
        matched = sum(s.num_matched for s in self.per_event)
        total = sum(s.num_reconstructable for s in self.per_event)
        return matched / total if total else 0.0

    @property
    def fake_rate(self) -> float:
        """Fake candidates / candidates, pooled over events."""
        fakes = sum(s.num_fakes for s in self.per_event)
        cands = sum(s.num_candidates for s in self.per_event)
        return fakes / cands if cands else 0.0

    @property
    def duplicate_rate(self) -> float:
        dups = sum(s.num_duplicates for s in self.per_event)
        cands = sum(s.num_candidates for s in self.per_event)
        return dups / cands if cands else 0.0

    @property
    def pt_resolution(self) -> float:
        """Median |Δpt/pt| of matched, fittable candidates (NaN if none)."""
        if self.pt_residuals.size == 0:
            return float("nan")
        return float(np.median(np.abs(self.pt_residuals)))

    def render(self) -> List[str]:
        lines = [
            f"events: {len(self.per_event)}",
            f"efficiency={self.efficiency:.3f} fake rate={self.fake_rate:.3f} "
            f"duplicates={self.duplicate_rate:.3f}",
        ]
        if self.pt_residuals.size:
            lines.append(f"pT resolution (median |Δpt/pt|): {self.pt_resolution:.3f}")
        if self.pt_efficiency is not None:
            lines.append("efficiency vs truth pT [GeV]:")
            lines.extend("  " + row for row in self.pt_efficiency.render())
        return lines


def evaluate_tracking(
    pipeline,
    events: Sequence,
    pt_edges: Sequence[float] = DEFAULT_PT_EDGES,
    min_hits: int = 3,
) -> TrackingEvaluation:
    """Reconstruct and score every event with a fitted pipeline.

    Parameters
    ----------
    pipeline:
        A fitted :class:`repro.pipeline.ExaTrkXPipeline`.
    events:
        Events with truth (`particle_ids`, `particles`).
    pt_edges:
        Bin edges for the efficiency-vs-pT curve (``None`` disables it).
    min_hits:
        Reconstructability / candidate-length cut.
    """
    from ..detector import fit_event_tracks, pt_resolution

    events = list(events)
    per_event: List[TrackingScore] = []
    truth_pt: List[float] = []
    was_matched: List[bool] = []
    residual_chunks: List[np.ndarray] = []

    for event, candidates in zip(events, pipeline.reconstruct_many(events)):
        score = match_tracks(candidates, event.particle_ids, min_hits=min_hits)
        per_event.append(score)

        fits = fit_event_tracks(event, candidates, pipeline.geometry.solenoid_field_tesla)
        residual_chunks.append(pt_resolution(event, candidates, fits))

        for particle in event.particles:
            if particle.particle_id in score.reconstructable:
                truth_pt.append(particle.pt)
                was_matched.append(particle.particle_id in score.matched)

    pt_eff = None
    if pt_edges is not None and truth_pt:
        pt_eff = binned_efficiency(
            np.asarray(truth_pt), np.asarray(was_matched), edges=list(pt_edges)
        )
    residuals = (
        np.concatenate([r for r in residual_chunks if r.size])
        if any(r.size for r in residual_chunks)
        else np.zeros(0)
    )
    return TrackingEvaluation(
        per_event=per_event, pt_efficiency=pt_eff, pt_residuals=residuals
    )
