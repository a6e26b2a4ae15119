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
from itertools import chain
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
    layer_a: Tuple[np.ndarray, cKDTree],
    layer_b: Tuple[np.ndarray, cKDTree],
    radius: float,
    dphi_max: float,
    dz_max: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs (a in layer_a, b in layer_b) with |Δφ|<=dphi_max, |Δz|<=dz_max.

    A layer is its hit indices and the KD-tree of their embedded points
    (see :func:`build_candidate_graph`); the tree's radius-``radius`` query
    is a superset, filtered exactly here.  Pairs come grouped by source hit
    in ``layer_a`` order.
    """
    idx_a, tree_a = layer_a
    idx_b, tree_b = layer_b
    neighbors = tree_a.query_ball_tree(tree_b, r=radius)
    counts = np.fromiter(map(len, neighbors), dtype=np.int64, count=len(neighbors))
    flat = np.fromiter(chain.from_iterable(neighbors), dtype=np.int64, count=int(counts.sum()))
    src = np.repeat(idx_a, counts)
    dst = idx_b[flat]
    delta = phi[dst] - phi[src]
    dphi = np.arctan2(np.sin(delta), np.cos(delta))
    ok = (np.abs(dphi) <= dphi_max) & (np.abs(z[dst] - z[src]) <= dz_max)
    return src[ok], dst[ok]


def build_candidate_graph(
    event: Event,
    geometry: DetectorGeometry,
    config: GeometricBuilderConfig,
) -> EventGraph:
    """Build the candidate-segment graph of one event.

    Edges run from the inner to the outer layer of each allowed layer pair
    and are labelled against the event's truth segments.

    Azimuthal wrap-around is handled by embedding φ on the unit circle:
    the chord distance ``2 sin(Δφ/2)`` is monotone in |Δφ| for |Δφ|≤π, so a
    KD-tree radius query in (cosφ, sinφ, z·s) space with an appropriately
    scaled radius is an exact superset of the window.  Each layer's tree is
    built once and serves every layer pair it is part of.
    """
    r, phi, z = event.cylindrical()
    layers = event.layer_ids
    chord = 2.0 * np.sin(min(config.dphi_max, np.pi) / 2.0)
    # Scale z so that the dz window maps onto the same radius as the chord.
    z_scale = chord / config.dz_max
    # conservative superset radius: sqrt(chord^2 + chord^2)
    radius = np.sqrt(2.0) * chord
    by_layer = {}
    for l in np.unique(layers):
        idx = np.flatnonzero(layers == l)
        pts = np.stack([np.cos(phi[idx]), np.sin(phi[idx]), z[idx] * z_scale], axis=1)
        by_layer[int(l)] = (idx, cKDTree(pts))

    srcs, dsts = [], []
    for la, layer_a in by_layer.items():
        for skip in range(1, config.max_layer_skip + 1):
            if la + skip not in by_layer:
                continue
            s, d = _window_pairs(
                phi, z, layer_a, by_layer[la + skip], radius, config.dphi_max, config.dz_max
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
