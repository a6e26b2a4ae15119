"""Configuration dataclasses for the five-stage pipeline and GNN training."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..distributed.backend import COMM_BACKENDS
from ..distributed.ddp import ALLREDUCE_STRATEGIES

__all__ = [
    "GNNTrainConfig",
    "PipelineConfig",
    "knob",
    "TRAIN_MODES",
    "PRECISIONS",
    "TRACK_BUILDERS",
]

#: The paper's comparison: full graph vs sequential vs bulk ShaDow.
TRAIN_MODES = ("full", "shadow", "bulk")
PRECISIONS = ("float32", "float64")
SCHEDULERS = (None, "cosine", "step")
CONSTRUCTIONS = ("metric_learning",)
TRACK_BUILDERS = ("cc", "walkthrough")


def knob(default, help: str, choices: Optional[tuple] = None):
    """A config field that carries its own operator documentation.

    ``help`` (and ``choices``) sit in the field's metadata, where
    :mod:`repro.cli.flags` reads them to derive the command-line flag —
    each knob is defined once, here.  Metadata is not part of
    ``dataclasses.asdict``, so config hashes and checkpoint
    config-matching are unaffected.
    """
    metadata = {"help": help}
    if choices is not None:
        metadata["choices"] = choices
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class GNNTrainConfig:
    """GNN-stage training recipe.

    Defaults follow Section IV-A: batch size 256, hidden 64, 8 GNN layers,
    30 epochs, ShaDow depth 3 / fanout 6.  The benchmark harness passes
    scaled-down values (documented in EXPERIMENTS.md) to fit the CPU
    budget; the semantics are unchanged.

    Parameters
    ----------
    mode:
        ``"full"`` — full-graph training with memory-based skipping (the
        original Exa.TrkX behaviour);
        ``"shadow"`` — minibatch + sequential ShaDow (the PyG baseline);
        ``"bulk"`` — minibatch + matrix-based bulk ShaDow (ours).
    bulk_k:
        Minibatches sampled per bulk step (``k`` in Figure 3); ignored for
        other modes.
    world_size:
        Simulated DDP rank count; local batch is ``batch_size / world_size``.
    allreduce:
        ``"coalesced"`` (Section III-D) or ``"per_parameter"``.
    backend:
        Communication backend: ``"sim"`` (default; in-process simulated
        ranks with α–β modeled time) or ``"proc"`` (one worker process
        per rank, real shared-memory ring all-reduce with crash-tolerant
        supervision — see docs/distributed.md).  Both are bit-exact on
        the same seeded run.
    capacity_bytes:
        Activation budget for the full-graph skip decision (``None`` =
        never skip).
    checkpoint_activations:
        Full-graph mode only: when a graph exceeds ``capacity_bytes``,
        retry with layer-boundary gradient checkpointing
        (``InteractionGNN.forward(..., recompute=True)``) before
        skipping — the memory/compute trade the original pipeline leaves
        unused.
    checkpoint_every:
        Write a resumable trainer checkpoint every this many epochs
        (``None`` = never).  Requires ``checkpoint_path``.  Checkpoints
        capture *complete* trainer state (weights, Adam moments, RNG,
        history, early-stop bookkeeping) so a resumed run is bit-equal
        to an uninterrupted one; see :mod:`repro.pipeline.checkpoint`.
    checkpoint_path:
        Destination ``.npz`` for trainer checkpoints (written atomically,
        with an integrity checksum).
    resume_from:
        Path of a checkpoint written by a previous (interrupted) run of
        the *same configuration*; training continues from the epoch after
        the checkpoint instead of starting over.
    prefetch_workers:
        Sampling prefetch on (``>= 1``, on the process's one thread pool,
        see :mod:`repro.data`) or off (``0``, default: synchronous).  Either
        way batch contents are bit-identical (the determinism contract of
        the prefetch pipeline), so it is a pure throughput knob and may
        differ between a checkpointing run and the run resuming it.
    prefetch_depth:
        Bound on in-flight prefetched bulk steps (double-buffer depth).
    checkpoint_every_steps:
        Additionally checkpoint every this many plan steps (bulk steps;
        whole graphs in full mode) within an epoch (``None`` = epoch
        boundaries only).  Requires ``checkpoint_path``.  Mid-epoch
        checkpoints record the loader cursor so a resumed run replays
        the identical epoch plan and continues bit-exactly from the next
        step.
    max_steps:
        Hard stop after this many optimisation steps, mid-epoch if
        necessary (``None`` = run the full epoch budget).  Useful for
        smoke runs and for exercising mid-epoch crash/resume.
    fused_kernels:
        Retired: the IGNN has one message path, the fused one, and
        ``False`` raises.  The field stays while callers still pass
        ``True``.
    precision:
        ``"float32"`` (default, as in the paper's training runs) or
        ``"float64"`` — an end-to-end high-precision reference mode:
        model weights, inputs, and every intermediate run in float64.
        Used by the convergence-parity gates that qualify the float32
        mode.
    """

    mode: str = knob(
        "bulk",
        "training regime: full-graph, minibatch + sequential ShaDow, or "
        "minibatch + matrix-based bulk ShaDow",
        TRAIN_MODES,
    )
    epochs: int = knob(30, "training epochs")
    batch_size: int = knob(256, "global minibatch size (seed vertices per step)")
    hidden: int = knob(64, "hidden width of the GNN's MLPs")
    num_layers: int = knob(8, "message-passing layers")
    mlp_layers: int = 2
    lr: float = 1e-3
    depth: int = knob(3, "ShaDow subgraph depth d")
    fanout: int = knob(6, "ShaDow fanout s (neighbours sampled per vertex)")
    bulk_k: int = knob(4, "minibatches sampled per bulk step (k in Figure 3)")
    world_size: int = knob(1, "DDP rank count; local batch is batch_size / N")
    allreduce: str = knob(
        "coalesced",
        "gradient sync: one coalesced buffer (Section III-D) or one call "
        "per parameter",
        ALLREDUCE_STRATEGIES,
    )
    backend: str = knob(
        "sim",
        "comm backend: in-process simulator (sim) or one real worker "
        "process per rank with crash-tolerant supervision (proc)",
        COMM_BACKENDS,
    )
    capacity_bytes: Optional[int] = None
    checkpoint_activations: bool = False
    pos_weight: Optional[float] = knob(
        None, "positive-class loss weight (None = derive from label balance)"
    )
    threshold: float = 0.5
    seed: int = knob(0, "RNG seed (weights, sampling, shuffling)")
    eval_every: int = 1
    # Optional training conveniences (acorn trains with a scheduler and
    # keeps the best-validation checkpoint):
    scheduler: Optional[str] = knob(None, "learning-rate schedule", SCHEDULERS)
    early_stopping_patience: Optional[int] = knob(
        None, "stop after N evaluations without validation-F1 gain"
    )
    restore_best: bool = knob(
        False, "reload the best-validation-F1 weights at the end"
    )
    # Fault tolerance (see docs/fault_tolerance.md):
    checkpoint_every: Optional[int] = knob(
        None, "write a resumable trainer checkpoint every N epochs"
    )
    checkpoint_path: Optional[str] = knob(
        None, "where trainer checkpoints are written (atomic + checksummed)"
    )
    resume_from: Optional[str] = knob(
        None, "resume training from a checkpoint written by --checkpoint-every"
    )
    # Async data pipeline (see docs/data_pipeline.md):
    prefetch_workers: int = knob(
        0,
        "sample steps ahead on the shared thread pool (0 = synchronous); "
        "batch contents are bit-identical either way",
    )
    prefetch_depth: int = knob(2, "bound on in-flight prefetched bulk steps")
    checkpoint_every_steps: Optional[int] = knob(
        None, "additionally checkpoint every N bulk steps within an epoch"
    )
    max_steps: Optional[int] = knob(None, "stop after N optimisation steps")
    # Guardrails (see docs/resilience.md):
    validate_inputs: bool = knob(
        False, "quarantine malformed training graphs instead of crashing"
    )
    keep_last: Optional[int] = knob(
        None,
        "retain the last N checkpoints (history copies enable fallback "
        "resume when the newest one is corrupt)",
    )
    watchdog: bool = knob(
        False,
        "enable the training stability watchdog: on NaN/Inf or a loss "
        "spike, roll back to the last checkpoint with LR backoff",
    )
    watchdog_window: int = knob(8, "rolling loss window for spike detection")
    watchdog_spike_factor: float = knob(
        10.0, "divergence when loss exceeds X times the rolling median"
    )
    watchdog_max_rollbacks: int = knob(
        2, "rollback budget before training gives up"
    )
    watchdog_lr_backoff: float = knob(
        0.5, "multiply the learning rate by X on each rollback"
    )
    fused_kernels: bool = True
    # Precision knob (see docs/architecture.md, "The fused message path"):
    precision: str = knob(
        "float32",
        "training dtype: float32 (paper) or the float64 reference mode",
        PRECISIONS,
    )

    def __post_init__(self) -> None:
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.allreduce not in ALLREDUCE_STRATEGIES:
            raise ValueError(f"unknown allreduce {self.allreduce!r}")
        if self.backend not in COMM_BACKENDS:
            raise ValueError(
                f"unknown comm backend {self.backend!r}; choose 'sim' or 'proc'"
            )
        if self.batch_size % self.world_size != 0:
            raise ValueError("batch_size must be divisible by world_size")
        if self.epochs < 1 or self.batch_size < 1 or self.world_size < 1:
            raise ValueError("epochs/batch_size/world_size must be positive")
        if self.bulk_k < 1:
            raise ValueError("bulk_k must be >= 1")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.early_stopping_patience is not None and self.early_stopping_patience < 1:
            raise ValueError("early_stopping_patience must be >= 1")
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if self.checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        if self.prefetch_workers < 0:
            raise ValueError("prefetch_workers must be >= 0")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if self.checkpoint_every_steps is not None:
            if self.checkpoint_every_steps < 1:
                raise ValueError("checkpoint_every_steps must be >= 1")
            if self.checkpoint_path is None:
                raise ValueError("checkpoint_every_steps requires checkpoint_path")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.fused_kernels:
            raise ValueError(
                "fused_kernels=False is retired: the IGNN runs the fused "
                "message path only"
            )
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {self.precision!r}; choose 'float32' or 'float64'"
            )
        if self.keep_last is not None and self.keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        if self.keep_last is not None and self.checkpoint_path is None:
            raise ValueError("keep_last requires checkpoint_path")
        if self.watchdog:
            if self.watchdog_window < 1:
                raise ValueError("watchdog_window must be >= 1")
            if self.watchdog_spike_factor <= 1.0:
                raise ValueError("watchdog_spike_factor must be > 1")
            if self.watchdog_max_rollbacks < 0:
                raise ValueError("watchdog_max_rollbacks must be >= 0")
            if not 0.0 < self.watchdog_lr_backoff < 1.0:
                raise ValueError("watchdog_lr_backoff must be in (0, 1)")
            if self.watchdog_max_rollbacks > 0 and self.checkpoint_path is None:
                raise ValueError(
                    "watchdog rollback requires checkpoint_path (set "
                    "watchdog_max_rollbacks=0 for detect-only mode)"
                )

    def replace(self, **kwargs) -> "GNNTrainConfig":
        """Copy with overrides."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end pipeline recipe.

    Stage thresholds follow acorn's philosophy: the filter threshold is
    low (prune aggressively-false edges but keep recall near 1), the GNN
    threshold is the 0.5 classification point.
    """

    # Stage 1–2 strategy: "metric_learning" (embedding MLP + FRNN), the
    # only one; the field goes once no caller passes it.
    construction: str = "metric_learning"
    embedding_dim: int = 8
    embedding_hidden: int = 64
    embedding_epochs: int = knob(30, "embedding-stage (metric learning) epochs")
    embedding_lr: float = 1e-2
    embedding_margin: float = 1.0
    negatives_per_positive: int = 4
    # Hard-negative mining (acorn's HNM): after a warmup, negatives are
    # drawn from the false pairs the current embedding would wrongly
    # connect (FRNN neighbours of different particles) instead of random
    # pairs, sharpening the decision boundary where it matters.
    hard_negative_mining: bool = False
    hnm_warmup_epochs: int = 8
    frnn_radius: float = 0.25
    frnn_max_neighbors: Optional[int] = 40
    filter_hidden: int = 64
    filter_epochs: int = knob(30, "filter-stage epochs")
    filter_lr: float = 1e-2
    filter_threshold: float = 0.1
    feature_scheme: str = "compact"
    mlp_layers: int = 2
    gnn: GNNTrainConfig = field(default_factory=GNNTrainConfig)
    min_track_hits: int = 3
    # Stage 5 builder: "cc" (the paper's connected components) or
    # "walkthrough" (score-ordered with degree constraints).
    track_builder: str = "cc"
    seed: int = 0
    # Guardrails: validate raw events at fit() ingestion, quarantining
    # malformed ones (see repro.guard.validation / docs/resilience.md).
    validate_inputs: bool = False
    quarantine_log: Optional[str] = knob(None, "JSONL quarantine record path")

    def __post_init__(self) -> None:
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction strategy {self.construction!r}")
        if self.track_builder not in TRACK_BUILDERS:
            raise ValueError(f"unknown track builder {self.track_builder!r}")
