"""Candidate-graph construction from simulated events.

The GNN stage of the pipeline consumes graphs whose edges are *candidate*
track segments; in production those come from the embedding + filter
stages.  For dataset generation we also provide a direct geometric builder
(connect hits on nearby layers within Δφ/Δz windows) whose window widths
control the edge density — this is how the CTD-like (dense, ~21 edges per
vertex) and Ex3-like (sparse, ~3.7 edges per vertex) registries hit their
Table-I shape targets without training a pipeline first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

from ..graph import EventGraph
from .events import Event
from .features import edge_features, vertex_features
from .geometry import DetectorGeometry

__all__ = [
    "GeometricBuilderConfig",
    "build_candidate_graph",
    "label_edges",
    "segment_recall",
]


@dataclass(frozen=True)
class GeometricBuilderConfig:
    """Window parameters of the geometric candidate-graph builder.

    Parameters
    ----------
    dphi_max:
        Maximum azimuthal separation [rad] between connected hits.
    dz_max:
        Maximum longitudinal separation [mm].
    max_layer_skip:
        Connect hits whose layer indices differ by 1..max_layer_skip
        (skipping accounts for detector inefficiency and inflates edge
        density, as in the dense CTD graphs).
    feature_scheme:
        ``"compact"`` or ``"rich"`` (see :mod:`repro.detector.features`).
    """

    dphi_max: float = 0.15
    dz_max: float = 150.0
    max_layer_skip: int = 1
    feature_scheme: str = "compact"

    def __post_init__(self) -> None:
        if self.dphi_max <= 0 or self.dz_max <= 0:
            raise ValueError("window widths must be positive")
        if self.max_layer_skip < 1:
            raise ValueError("max_layer_skip must be >= 1")


def _window_pairs(
    phi: np.ndarray,
    z: np.ndarray,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    dphi_max: float,
    dz_max: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs (a in idx_a, b in idx_b) with |Δφ|<=dphi_max, |Δz|<=dz_max.

    Azimuthal wrap-around is handled by embedding φ on the unit circle:
    the chord distance ``2 sin(Δφ/2)`` is monotone in |Δφ| for |Δφ|≤π, so a
    KD-tree radius query in (cosφ, sinφ, z·s) space with an appropriately
    scaled radius is an exact superset, filtered exactly afterwards.
    """
    if idx_a.size == 0 or idx_b.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    chord = 2.0 * np.sin(min(dphi_max, np.pi) / 2.0)
    # Scale z so that the dz window maps onto the same radius as the chord.
    s = chord / dz_max
    pts_a = np.stack([np.cos(phi[idx_a]), np.sin(phi[idx_a]), z[idx_a] * s], axis=1)
    pts_b = np.stack([np.cos(phi[idx_b]), np.sin(phi[idx_b]), z[idx_b] * s], axis=1)
    tree_b = cKDTree(pts_b)
    # conservative superset radius: sqrt(chord^2 + chord^2)
    radius = np.sqrt(2.0) * chord
    neighbors = cKDTree(pts_a).query_ball_tree(tree_b, r=radius)
    srcs, dsts = [], []
    for i, nbrs in enumerate(neighbors):
        if not nbrs:
            continue
        a = idx_a[i]
        cand = idx_b[np.asarray(nbrs, dtype=np.int64)]
        dphi = np.arctan2(np.sin(phi[cand] - phi[a]), np.cos(phi[cand] - phi[a]))
        ok = (np.abs(dphi) <= dphi_max) & (np.abs(z[cand] - z[a]) <= dz_max)
        good = cand[ok]
        srcs.append(np.full(good.shape, a, dtype=np.int64))
        dsts.append(good)
    if not srcs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(srcs), np.concatenate(dsts)


def build_candidate_graph(
    event: Event,
    geometry: DetectorGeometry,
    config: GeometricBuilderConfig,
) -> EventGraph:
    """Build the candidate-segment graph of one event.

    Edges run from the inner to the outer layer of each allowed layer pair
    and are labelled against the event's truth segments.
    """
    r, phi, z = event.cylindrical()
    layers = event.layer_ids
    unique_layers = np.unique(layers)
    by_layer = {int(l): np.flatnonzero(layers == l) for l in unique_layers}

    srcs, dsts = [], []
    for la in unique_layers:
        for skip in range(1, config.max_layer_skip + 1):
            lb = int(la) + skip
            if lb not in by_layer:
                continue
            s, d = _window_pairs(
                phi, z, by_layer[int(la)], by_layer[lb], config.dphi_max, config.dz_max
            )
            srcs.append(s)
            dsts.append(d)
    if srcs:
        edge_index = np.stack([np.concatenate(srcs), np.concatenate(dsts)])
    else:
        edge_index = np.zeros((2, 0), dtype=np.int64)

    labels = label_edges(event, edge_index)
    return EventGraph(
        edge_index=edge_index,
        x=vertex_features(event, geometry, config.feature_scheme),
        y=edge_features(event, geometry, edge_index, config.feature_scheme),
        edge_labels=labels,
        particle_ids=event.particle_ids,
        event_id=event.event_id,
    )


def label_edges(event: Event, edge_index: np.ndarray) -> np.ndarray:
    """Label candidate edges: 1 iff the pair is a truth segment (either
    orientation), else 0."""
    # an ordered pair (a, b) is the integer key a·n + b: one membership
    # test of the edge keys against the truth keys of both orientations
    n = event.num_hits
    a, b = event.true_segments()
    truth = np.concatenate([a * n + b, b * n + a])
    keys = edge_index[0].astype(np.int64) * n + edge_index[1].astype(np.int64)
    return np.isin(keys, truth).astype(np.int8)


def segment_recall(event: Event, edge_index: np.ndarray) -> float:
    """Fraction of the event's truth segments that ``edge_index`` holds.

    Either orientation counts; an event without segments scores 1.0.
    """
    n = event.num_hits
    a, b = event.true_segments()
    if a.size == 0:
        return 1.0
    rows = edge_index[0].astype(np.int64)
    cols = edge_index[1].astype(np.int64)
    built = np.concatenate([rows * n + cols, cols * n + rows])
    return np.count_nonzero(np.isin(a * n + b, built)) / a.size
