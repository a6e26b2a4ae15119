"""The five-stage Exa.TrkX-style tracking pipeline and its GNN trainers."""

from .config import GNNTrainConfig, PipelineConfig
from .checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    TrainerState,
    checkpoint_history_paths,
    describe_checkpoint,
    load_trainer_checkpoint,
    load_with_fallback,
    save_trainer_checkpoint,
)
from .trainers import (
    GNNTrainResult,
    derive_pos_weight,
    evaluate_edge_classifier,
    train_gnn,
)
from .embedding_stage import EmbeddingStage
from .graph_construction import GraphConstructionStage
from .filter_stage import FilterStage
from .gnn_stage import GNNStage
from .track_building import build_tracks, build_tracks_walkthrough
from .pipeline import ExaTrkXPipeline, PipelineReport, UpstreamStages
from .diagnostics import EventDiagnostics, StageReport, diagnose_event
from .persistence import load_pipeline, save_pipeline
from .experiments import SeedSweepResult, run_with_seeds

__all__ = [
    "PipelineConfig",
    "GNNTrainConfig",
    "GNNTrainResult",
    "train_gnn",
    "evaluate_edge_classifier",
    "derive_pos_weight",
    "EmbeddingStage",
    "GraphConstructionStage",
    "FilterStage",
    "GNNStage",
    "build_tracks",
    "build_tracks_walkthrough",
    "ExaTrkXPipeline",
    "PipelineReport",
    "UpstreamStages",
    "EventDiagnostics",
    "StageReport",
    "diagnose_event",
    "save_pipeline",
    "load_pipeline",
    "CheckpointError",
    "CheckpointCorruptError",
    "TrainerState",
    "save_trainer_checkpoint",
    "load_trainer_checkpoint",
    "load_with_fallback",
    "checkpoint_history_paths",
    "describe_checkpoint",
    "SeedSweepResult",
    "run_with_seeds",
]
