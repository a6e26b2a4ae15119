"""Synthetic HEP detector simulation and dataset registry.

Stands in for the gated CTD / Ex3 datasets: helical charged particles in a
solenoid field are propagated through a cylindrical silicon tracker, hits
are digitised with inefficiency, smearing and noise, and candidate-segment
graphs are built with feature widths matching Table I of the paper.
"""

from .geometry import BarrelLayer, DetectorGeometry, EndcapDisk
from .particles import Particle, ParticleGun
from .propagation import TrueHit, helix_position, propagate, propagate_with_scattering
from .events import Event, EventSimulator
from .features import FEATURE_SCHEMES, edge_features, feature_dims, vertex_features
from .builders import (
    GeometricBuilderConfig,
    build_candidate_graph,
    label_edges,
    segment_recall,
)
from .fitting import HelixFit, fit_event_tracks, fit_helix, pt_resolution
from .display import event_display_svg
from .pileup import generate_pileup_event, merge_events
from .datasets import (
    DATASET_REGISTRY,
    DatasetConfig,
    TrackingDataset,
    dataset_config,
    make_dataset,
    summarize,
)

__all__ = [
    "BarrelLayer",
    "EndcapDisk",
    "DetectorGeometry",
    "Particle",
    "ParticleGun",
    "TrueHit",
    "helix_position",
    "propagate",
    "propagate_with_scattering",
    "Event",
    "EventSimulator",
    "FEATURE_SCHEMES",
    "feature_dims",
    "vertex_features",
    "edge_features",
    "event_display_svg",
    "merge_events",
    "generate_pileup_event",
    "HelixFit",
    "fit_helix",
    "fit_event_tracks",
    "pt_resolution",
    "GeometricBuilderConfig",
    "build_candidate_graph",
    "label_edges",
    "segment_recall",
    "DatasetConfig",
    "TrackingDataset",
    "DATASET_REGISTRY",
    "dataset_config",
    "make_dataset",
    "summarize",
]
