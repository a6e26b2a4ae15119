"""GNN-stage training: one epoch loop over three kinds of step source.

Figure 3 / Figure 4 compare three regimes, and Section III-B treats the
first as the large-batch limit of the others.  Here they are one loop
(:func:`_train`) fed by different *step sources* — a sampler plus a rule
for drawing an epoch's plan of steps:

* **full** — the original Exa.TrkX behaviour: each training step consumes
  one entire event graph; events whose activation memory exceeds the
  device budget are *skipped* (Section III-B).
* **shadow** — minibatch training over 256-vertex batches with the
  sequential ShaDow sampler (the "PyG implementation" baseline).
* **bulk** — the paper's pipeline: matrix-based bulk ShaDow sampling of
  ``k`` minibatches per step, DDP gradient sync with the coalesced
  all-reduce.

A step is P rank-local forward/backward passes (:class:`_Rank`) plus one
gradient all-reduce (Section III-D).  All regimes share the evaluation
path (pooled validation-edge precision / recall at threshold 0.5 — the
Figure-4 definition), the optimiser (Adam), and the loss
(BCE-with-logits with a class-balance ``pos_weight``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .._per_event import dispatch
from ..data import EpochPlan, PlannedStep, PrefetchLoader
from ..distributed import (
    CommStats,
    DistributedDataParallel,
    create_communicator,
    replicate_model,
)
from ..faults import FaultPlan, RetryPolicy, SimClock, call_with_retries
from ..graph import EventGraph
from ..guard import (
    DivergenceError,
    GraphValidator,
    Quarantine,
    StabilityWatchdog,
    TrainingUnstableError,
    WatchdogConfig,
    global_grad_norm,
)
from ..io.serialization import clean_stale_tmp
from ..memory import ActivationMemoryModel
from ..metrics import EpochRecord, TrainingHistory, pooled_precision_recall
from ..models import IGNNConfig, InteractionGNN
from ..nn import Adam, BCEWithLogitsLoss
from ..obs import get_metrics, get_telemetry, get_tracer
from ..perf import StageTimer
from ..sampling import BulkShadowSampler, SampledBatch, Sampler, ShadowSampler
from .checkpoint import TrainerState, load_with_fallback, save_trainer_checkpoint
from .config import GNNTrainConfig

__all__ = ["GNNTrainResult", "train_gnn", "evaluate_edge_classifier", "derive_pos_weight"]


@dataclass
class GNNTrainResult:
    """Everything a bench or a pipeline stage needs after GNN training."""

    model: InteractionGNN
    history: TrainingHistory
    timers: StageTimer
    comm_stats: Optional[CommStats] = None
    skipped_graphs: int = 0
    trained_steps: int = 0
    checkpointed_steps: int = 0
    config: Optional[GNNTrainConfig] = None
    resumed_epoch: Optional[int] = None  # first epoch of a resumed run
    checkpoints_written: int = 0
    # Guardrail accounting (see docs/resilience.md):
    quarantined_graphs: int = 0  # inputs dropped by validate_inputs
    watchdog_rollbacks: int = 0  # divergence rollbacks consumed
    resume_fallback_path: Optional[str] = None  # history checkpoint used
    # when the one at resume_from was corrupt (None = no fallback)


class _TrainingGovernor:
    """Scheduler stepping, early stopping, and best-checkpoint tracking.

    Every regime gets the same conveniences: an optional LR schedule
    ("cosine" anneals over the epoch budget, "step" decays 10× at 2/3 of
    it), patience-based early stopping on validation F1, and best-weights
    restoration.
    """

    def __init__(self, config: GNNTrainConfig, optimizers: Sequence[Adam]) -> None:
        from ..nn import CosineAnnealingLR, StepLR

        self.config = config
        self.schedulers = []
        if config.scheduler == "cosine":
            self.schedulers = [
                CosineAnnealingLR(o, t_max=config.epochs, eta_min=config.lr * 0.01)
                for o in optimizers
            ]
        elif config.scheduler == "step":
            step = max(2 * config.epochs // 3, 1)
            self.schedulers = [StepLR(o, step_size=step, gamma=0.1) for o in optimizers]
        self.best_f1 = -1.0
        self.best_state = None
        self.evals_since_best = 0

    def end_epoch(self, model, record: EpochRecord) -> bool:
        """Advance schedules; returns True when training should stop."""
        for s in self.schedulers:
            s.step()
        f1 = record.val_f1
        if np.isnan(f1):
            return False  # epoch without evaluation
        if f1 > self.best_f1:
            self.best_f1 = f1
            self.evals_since_best = 0
            if self.config.restore_best:
                self.best_state = model.state_dict()
        else:
            self.evals_since_best += 1
        patience = self.config.early_stopping_patience
        return patience is not None and self.evals_since_best >= patience

    def finalize(self, model) -> None:
        """Restore the best-validation weights if requested."""
        if self.config.restore_best and self.best_state is not None:
            model.load_state_dict(self.best_state)

    # -- checkpoint support (best_state travels separately as arrays) --
    def state_dict(self) -> dict:
        return {
            "best_f1": self.best_f1,
            "evals_since_best": self.evals_since_best,
            "scheduler_epoch": self.schedulers[0].epoch if self.schedulers else 0,
        }

    def load_state_dict(self, state: dict, best_state=None) -> None:
        self.best_f1 = float(state["best_f1"])
        self.evals_since_best = int(state["evals_since_best"])
        for s in self.schedulers:
            s.epoch = int(state["scheduler_epoch"])
        if best_state:
            self.best_state = best_state


class _FaultToleranceRuntime:
    """Checkpoint / resume / retry wiring shared by every training regime.

    One instance per :func:`train_gnn` call.  It applies a resume
    checkpoint to freshly built models/optimizers, and writes periodic
    checkpoints with transient-I/O retry (deterministic simulated
    backoff — the trainer never sleeps wall-time).
    """

    def __init__(
        self,
        config: GNNTrainConfig,
        fault_plan: Optional[FaultPlan],
        retry_policy: Optional[RetryPolicy],
        clock: Optional[SimClock] = None,
        rollback_resume: bool = False,
    ) -> None:
        self.config = config
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else SimClock()
        self.checkpoints_written = 0
        self.resumed_epoch: Optional[int] = None
        # Watchdog-rollback resumes deliberately change the lr (backoff),
        # which the config-match validation must exempt and the restored
        # optimiser state must not clobber.
        self.rollback_resume = rollback_resume
        self.resume_fallback_path: Optional[str] = None
        if config.checkpoint_path is not None:
            # interrupted atomic writes strand *.tmp.npz siblings; sweep
            # them at writer startup (never valid checkpoints)
            clean_stale_tmp(os.path.dirname(os.path.abspath(config.checkpoint_path)))

    def resume(self, ranks: Sequence["_Rank"], rng, governor) -> Optional[TrainerState]:
        """Restore checkpointed state into every rank; None if fresh.

        A corrupt checkpoint at ``resume_from`` (checksum mismatch,
        truncation) falls back to the newest retained history checkpoint
        that verifies — see :func:`~repro.pipeline.checkpoint.load_with_fallback`.
        """
        if self.config.resume_from is None:
            return None
        extra_exempt = ("lr",) if self.rollback_resume else ()
        with get_tracer().span(
            "checkpoint.resume",
            category="checkpoint",
            path=self.config.resume_from,
        ) as span:
            state, used_path, fell_back = load_with_fallback(
                self.config.resume_from, self.config, extra_exempt
            )
            if fell_back:
                self.resume_fallback_path = used_path
                get_metrics().counter("guard.resume.fallback").add(1)
                get_tracer().event(
                    "guard.resume_fallback",
                    category="guard",
                    requested=self.config.resume_from,
                    used=used_path,
                )
            for rank in ranks:
                rank.model.load_state_dict(state.model_state)
                rank.optimizer.load_state_dict(state.optimizer_state)
                if self.rollback_resume:
                    # the archive restored the pre-backoff lr with the Adam
                    # moments; re-apply the backed-off one
                    rank.optimizer.lr = self.config.lr
            governor.load_state_dict(state.governor_state, state.best_state)
            rng.bit_generator.state = state.rng_state
            self.resumed_epoch = state.epochs_done
            span.set(epochs_done=state.epochs_done, fallback=fell_back)
        return state

    def checkpoint(self, state: TrainerState) -> None:
        """Write ``state`` as the run's checkpoint (atomic, checksummed).

        ``state.step_in_epoch`` is the loader cursor: with a non-zero
        cursor ``state.rng_state`` is the *epoch-start* RNG state, from
        which the resuming run rebuilds the identical
        :class:`~repro.data.EpochPlan` and skips ahead; an epoch-boundary
        checkpoint is the same thing at cursor 0 of the next epoch.
        Transient I/O errors are retried on the simulated clock.
        """
        cfg = self.config
        with get_tracer().span(
            "checkpoint.save",
            category="checkpoint",
            epochs_done=state.epochs_done,
            step=state.step_in_epoch,
            path=cfg.checkpoint_path,
        ):
            call_with_retries(
                lambda: save_trainer_checkpoint(
                    cfg.checkpoint_path, cfg, state,
                    fault_plan=self.fault_plan, keep_last=cfg.keep_last,
                ),
                self.retry_policy,
                self.clock,
                retry_on=(OSError,),
            )
        self.checkpoints_written += 1


def derive_pos_weight(graphs: Sequence[EventGraph]) -> float:
    """Class-balance positive weight: (#negative edges) / (#positive edges)."""
    pos = sum(int(g.edge_labels.sum()) for g in graphs)
    neg = sum(g.num_edges for g in graphs) - pos
    if pos == 0:
        return 1.0
    return max(neg / pos, 1.0)


def evaluate_edge_classifier(
    model: InteractionGNN,
    graphs: Sequence[EventGraph],
    threshold: float = 0.5,
) -> Tuple[float, float]:
    """Pooled precision/recall over full validation graphs (Figure 4)."""
    pairs = []
    for g in graphs:
        scores = model.predict_proba(g)
        pairs.append((scores, g.edge_labels))
    return pooled_precision_recall(pairs, threshold=threshold)


def _model_factory(
    config: GNNTrainConfig, node_features: int, edge_features: int
) -> Callable[[], InteractionGNN]:
    """The one place a ``config`` becomes an IGNN (training and
    :func:`~repro.pipeline.persistence.load_pipeline` alike)."""
    ignn_config = IGNNConfig(
        node_features=node_features,
        edge_features=edge_features,
        hidden=config.hidden,
        num_layers=config.num_layers,
        mlp_layers=config.mlp_layers,
        seed=config.seed,
        fused=config.fused_kernels,
    )
    dtype = np.dtype(config.precision)  # float64 = reference mode; float32 is a no-op cast
    return lambda: InteractionGNN(ignn_config).astype(dtype)


#: Least work (edges × ``hidden``) at which a one-rank step trains its
#: batch as two component lanes (:func:`_cut`).  Below it the lanes'
#: hand-offs cost more than the second core saves; EXPERIMENTS.md
#: ("Component lanes at P = 1") has the probe that set it.  A constant,
#: not a knob: whether a step splits is a function of its batch alone.
_SPLIT_WORK = 120_000


def _cut(batch: SampledBatch, hidden: int) -> Optional[Tuple[EventGraph, EventGraph]]:
    """A ShaDow batch's graph as two parts, or ``None`` to train it whole.

    The batch is a disjoint union of per-root components, each on a
    contiguous range of vertices and of edges (both samplers build it so).
    The cut falls at the component boundary nearest half the edges: the
    parts are views of the batch's features, and only the second part's
    ``edge_index`` is rebased.  A batch of one component, or of less work
    than :data:`_SPLIT_WORK`, stays whole.
    """
    graph, comp = batch.graph, batch.component_ids
    m = graph.num_edges
    if m * hidden < _SPLIT_WORK or batch.num_components < 2:
        return None
    edge_comp = comp[graph.rows]  # sorted: edges are grouped by component
    starts = np.searchsorted(edge_comp, np.arange(1, batch.num_components))
    e = int(starts[np.argmin(np.abs(2 * starts - m))])
    if not 0 < e < m:
        return None  # every edge in one component (the others are bare roots)
    v = int(np.searchsorted(comp, edge_comp[e]))
    return (
        EventGraph(graph.edge_index[:, :e], graph.x[:v], graph.y[:e], event_id=graph.event_id),
        EventGraph(graph.edge_index[:, e:] - v, graph.x[v:], graph.y[e:], event_id=graph.event_id),
    )


class _Rank:
    """One DDP rank's replica and optimiser — the rank-local half of a step.

    :meth:`step` touches nothing but this rank's own model/optimiser and
    its arguments (no communicator, loader, history or timer), so
    :func:`_train` runs a step's P rank steps on lanes (one thread each)
    and meets them in its single all-reduce.  At P = 1 a large batch
    comes cut in two (:func:`_cut`), and the step runs the parts as two
    lanes of its own that meet in its one loss.
    """

    def __init__(self, grank: int, model: InteractionGNN, optimizer: Adam) -> None:
        self.grank = grank  # *global* rank id: survives elastic evictions
        self.model = model
        self.optimizer = optimizer

    def step(
        self,
        graph: EventGraph,
        loss_fn: BCEWithLogitsLoss,
        recompute: bool = False,
        fault: Optional[str] = None,
        parts: Optional[Tuple[EventGraph, ...]] = None,
    ) -> float:
        """Zero the gradients, then one forward/backward on a (sub)graph;
        returns the loss value.  Plain data in, plain data out.

        ``parts`` is ``graph`` cut into disjoint parts (:func:`_cut`): the
        forward then runs one traversal per part as lanes on the
        per-event pool and returns once both have, one loss is taken on
        the parts' logits in order (``graph``'s edge order), and the one
        ``backward`` runs the parts' tapes as lanes again, adding their
        parameter gradients part by part on this thread
        (:func:`repro.tensor.ops.parts`).  So the trained bits are the
        same whatever the lanes' schedule, and equal to a plain loop over
        the same parts.

        ``recompute`` runs the same pass under block-boundary activation
        checkpointing (``InteractionGNN.forward(recompute=True)`` — same
        gradients, smaller footprint).  ``fault`` is this execution's
        scheduled :class:`~repro.faults.NumericFault` target, if any:
        ``"loss"`` makes the observed loss NaN, ``"grad"`` poisons the
        first parameter gradient after ``backward``.  A non-finite loss is
        returned without running ``backward``; judging the returned loss
        and the gradients it left (watchdog, ``FloatingPointError``) is
        the driver's business.
        """
        model = self.model
        self.optimizer.zero_grad()
        tracer = get_tracer()
        with tracer.span("forward", category="train", edges=graph.num_edges):
            logits = model.logits(graph if parts is None else parts, recompute=recompute)
            loss = loss_fn(logits, graph.edge_labels.astype(np.float32))
        loss_value = float("nan") if fault == "loss" else loss.item()
        if np.isfinite(loss_value):
            with tracer.span("backward", category="train"):
                loss.backward()
            if fault == "grad":
                for p in model.parameters():
                    if p.grad is not None:
                        p.grad[...] = np.nan
                        break
        return loss_value


def _check_step(
    loss: float, model: InteractionGNN, graph: EventGraph,
    watchdog: Optional[StabilityWatchdog],
) -> None:
    """The driver's verdict on one rank-local step.

    With a watchdog, the loss and then the global gradient norm are fed to
    it, so divergence (NaN/Inf loss or gradient, loss spike) raises
    :class:`~repro.guard.DivergenceError` for the rollback loop in
    :func:`train_gnn`.  Without one, a non-finite loss raises
    ``FloatingPointError``: a diverged run must fail loudly rather than
    silently poison the replicas (under DDP a NaN gradient spreads to
    every rank at the next all-reduce).
    """
    if watchdog is not None:
        watchdog.observe_loss(loss)
        watchdog.observe_grad_norm(global_grad_norm(model))
    elif not np.isfinite(loss):
        raise FloatingPointError(
            f"non-finite training loss ({loss}) on event "
            f"{graph.event_id} — check the learning rate / input features"
        )


# ----------------------------------------------------------------------
# step sources: the only per-regime code
# ----------------------------------------------------------------------
class _WholeGraphSampler(Sampler):
    """The large-batch limit of a sampler: the "subgraph" is the event."""

    def sample(self, graph, batch, rng) -> SampledBatch:
        return SampledBatch(graph, batch, np.arange(graph.num_edges))


def _whole_graph_plan(
    graphs: Sequence[EventGraph],
    config: GNNTrainConfig,
    memory: ActivationMemoryModel,
    rng: np.random.Generator,
) -> Tuple[EpochPlan, int]:
    """One whole-graph step per event that fits, in shuffled order.

    Returns the plan and how many events it skipped.  The permutation is
    the epoch's only RNG draw (the whole-graph sampler draws nothing, so
    every step shares one constant seed).
    """
    seed = np.random.SeedSequence(0)
    steps: List[PlannedStep] = []
    skipped = 0
    for gi in rng.permutation(len(graphs)):
        graph = graphs[gi]
        recompute = False
        if config.capacity_bytes is not None and not memory.fits(
            graph.num_nodes, graph.num_edges, config.capacity_bytes
        ):
            # graph exceeds the activation budget: train it with gradient
            # checkpointing if enabled and that fits, else skip (the
            # original Exa.TrkX behaviour)
            recompute = config.checkpoint_activations and (
                memory.checkpointed_bytes(graph.num_nodes, graph.num_edges)
                <= config.capacity_bytes
            )
            if not recompute:
                skipped += 1
                continue
        batches = (np.arange(graph.num_nodes),)
        steps.append(PlannedStep(len(steps), graph, batches, seed, recompute))
    return EpochPlan(tuple(steps)), skipped


def _step_source(
    config: GNNTrainConfig, graphs: Sequence[EventGraph], model_config: IGNNConfig
) -> Tuple[Sampler, Callable[[np.random.Generator], Tuple[EpochPlan, int]], str]:
    """Select ``(sampler, plan_epoch, history label)`` for ``config.mode``.

    ``plan_epoch(rng)`` draws one epoch's plan from the trainer RNG and
    returns it with the number of graphs it skipped.
    """
    world = config.world_size
    if config.mode == "full":
        if world != 1:
            raise ValueError("full-graph mode is single-rank (as in the original pipeline)")
        memory = ActivationMemoryModel(model_config)
        return (
            _WholeGraphSampler(),
            lambda rng: _whole_graph_plan(graphs, config, memory, rng),
            "full-graph",
        )
    k = 1
    if config.mode == "shadow":
        sampler = ShadowSampler(depth=config.depth, fanout=config.fanout)
        label = f"shadow-seq (P={world})"
    else:  # bulk
        sampler = BulkShadowSampler(depth=config.depth, fanout=config.fanout)
        k = config.bulk_k
        label = f"shadow-bulk k={config.bulk_k} (P={world})"
    return (
        sampler,
        lambda rng: (EpochPlan.build(graphs, config.batch_size, k, rng), 0),
        label,
    )


# ----------------------------------------------------------------------
# the epoch driver
# ----------------------------------------------------------------------
def _train(
    train_graphs: Sequence[EventGraph],
    val_graphs: Sequence[EventGraph],
    config: GNNTrainConfig,
    loss_fn: BCEWithLogitsLoss,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    watchdog: Optional[StabilityWatchdog] = None,
) -> GNNTrainResult:
    world = config.world_size
    g0 = train_graphs[0]
    factory = _model_factory(config, g0.num_node_features, g0.num_edge_features)
    models = replicate_model(factory, world)
    sampler, plan_epoch, label = _step_source(config, train_graphs, models[0].config)
    # The proc backend forks here, maybe with the shared thread pool
    # (repro._per_event) alive: register_at_fork gives the child a fresh one.
    comm = create_communicator(config.backend, world, fault_plan=fault_plan)
    clock = SimClock()
    ddp = DistributedDataParallel(
        models,
        comm,
        strategy=config.allreduce,
        retry_policy=retry_policy,
        clock=clock,
    )
    # Ranks carry their *global* id so elastic recovery (a rank
    # permanently failing mid-run) drops exactly the dead rank's state.
    ranks = [
        _Rank(grank, m, Adam(m.parameters(), lr=config.lr))
        for grank, m in zip(ddp.global_ranks, ddp.models)
    ]
    try:
        tracer = get_tracer()
        timers = StageTimer()
        history = TrainingHistory(label=label)
        rng = np.random.default_rng(config.seed)
        governor = _TrainingGovernor(config, [r.optimizer for r in ranks])
        runtime = _FaultToleranceRuntime(
            config, fault_plan, retry_policy, clock,
            rollback_resume=watchdog is not None and watchdog.rollbacks > 0,
        )
        loader = PrefetchLoader(
            sampler, workers=config.prefetch_workers, depth=config.prefetch_depth
        )
        steps = skipped = checkpointed_steps = 0
        start_epoch = start_step = 0
        losses: List[float] = []
        resumed = runtime.resume(ranks, rng, governor)
        if resumed is not None:
            start_epoch = resumed.epochs_done
            history = resumed.history
            steps = resumed.trained_steps
            skipped = resumed.skipped_graphs
            checkpointed_steps = resumed.checkpointed_steps
            # mid-epoch checkpoint: rng_state above is the epoch-start state;
            # rebuild the interrupted epoch's plan and skip the consumed steps
            start_step = resumed.step_in_epoch
            losses = list(resumed.epoch_losses)

        def checkpoint(epochs_done: int, step_in_epoch: int, rng_state: dict) -> None:
            runtime.checkpoint(
                TrainerState(
                    epochs_done=epochs_done,
                    model_state=ranks[0].model.state_dict(),
                    optimizer_state=ranks[0].optimizer.state_dict(),
                    rng_state=rng_state,
                    history=history,
                    governor_state=governor.state_dict(),
                    best_state=governor.best_state,
                    trained_steps=steps,
                    skipped_graphs=skipped,
                    checkpointed_steps=checkpointed_steps,
                    step_in_epoch=step_in_epoch,
                    epoch_losses=list(losses),
                )
            )

        # at one rank the second core is idle: large ShaDow batches train
        # as two component lanes (ranks fill the cores at P >= 2)
        may_cut = world == 1 and config.mode in ("shadow", "bulk")
        every, every_steps = config.checkpoint_every, config.checkpoint_every_steps
        max_steps = config.max_steps if config.max_steps is not None else float("inf")
        for epoch in range(start_epoch, config.epochs):
            # Snapshot before the plan consumes the RNG: a mid-epoch
            # checkpoint stores this state so the resuming run can rebuild
            # the identical plan (plan_epoch is the epoch's only RNG
            # consumer — see repro.data.prefetch).
            epoch_rng_state = rng.bit_generator.state
            epoch_t0 = timers.total("epoch")
            sample_t0 = timers.total("sampling")
            train_t0 = timers.total("training")
            comm_t0 = comm.stats.modeled_seconds
            with timers.scope("epoch"):
                plan, plan_skipped = plan_epoch(rng)
                # Each live rank samples & trains its shard of every batch
                # in a step's group.  The rank steps run on the per-event
                # pool's lanes and meet in the all-reduce, so "training" is
                # wall time at P lanes.  After an elastic rank eviction the
                # loader re-shards queued steps over the survivors, so no
                # shard is silently dropped.
                # With prefetch workers the "sampling" scope measures only
                # the trainer-thread *stall* — sampler work hidden behind
                # training compute no longer shows up in epoch time.
                stepper = loader.iter_epoch(
                    plan, lambda: tuple(ddp.global_ranks), start=start_step
                )
                cursor = start_step  # plan steps consumed so far
                try:
                    while cursor < len(plan):
                        with tracer.span("batch", category="train") as batch_span:
                            with timers.scope("sampling"):
                                step, rank_sampled = next(stepper)
                            batch_span.set(group_size=len(step.batches))
                            # one optimisation step per batch in the group
                            for bi in range(len(step.batches)):
                                with timers.scope("training"):
                                    batches = [rank_sampled[r.grank][bi] for r in ranks]
                                    graphs = [b.graph for b in batches]
                                    parts = [
                                        _cut(b, config.hidden)
                                        if may_cut and not step.recompute
                                        else None
                                        for b in batches
                                    ]
                                    faults = [
                                        fault_plan.numeric_fault_target()
                                        if fault_plan is not None
                                        else None
                                        for _ in ranks
                                    ]
                                    settle = dispatch(
                                        lambda rank, graph, fault, cut: rank.step(
                                            graph, loss_fn, step.recompute, fault, cut
                                        ),
                                        ranks, graphs, faults, parts,
                                    )

                                    def arrive() -> None:  # every rank judged before any reduce
                                        for rank, graph, loss in zip(ranks, graphs, settle()):
                                            _check_step(loss, rank.model, graph, watchdog)
                                            if rank is ranks[0]:
                                                losses.append(loss)

                                    # may evict permanently failed ranks (elastic
                                    # recovery) or retry transient comm faults
                                    with tracer.span("allreduce", category="train"):
                                        ddp.synchronize_gradients(arrive)
                                    if len(ranks) != ddp.world_size:
                                        live = ddp.global_ranks
                                        ranks = [r for r in ranks if r.grank in live]
                                    for rank in ranks:
                                        rank.optimizer.step()
                                steps += 1
                                checkpointed_steps += int(step.recompute)
                        cursor += 1
                        if every_steps is not None and cursor % every_steps == 0:
                            checkpoint(epoch, cursor, epoch_rng_state)
                        if steps >= max_steps:
                            break
                finally:
                    # a raise keeps this frame in its traceback: releasing the
                    # iterator (maybe a wrapper without close()) closes the
                    # loader's generator now, settling its in-flight samples
                    del stepper
            if cursor < len(plan):
                # stopped mid-epoch: no epoch record — exactly the state a
                # crash would leave, with the step checkpoint as resume point
                break
            skipped += plan_skipped
            lead = ranks[0].model
            precision, recall = (
                evaluate_edge_classifier(lead, val_graphs, config.threshold)
                if (epoch + 1) % config.eval_every == 0
                else (float("nan"), float("nan"))
            )
            history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=float(np.mean(losses)) if losses else float("nan"),
                    val_precision=precision,
                    val_recall=recall,
                    epoch_seconds=timers.total("epoch") - epoch_t0,
                    sampling_seconds=timers.total("sampling") - sample_t0,
                    training_seconds=timers.total("training") - train_t0,
                    comm_modeled_seconds=comm.stats.modeled_seconds - comm_t0,
                )
            )
            start_step, losses = 0, []
            stop = governor.end_epoch(lead, history.final)
            if every is not None and (epoch + 1) % every == 0:
                checkpoint(epoch + 1, 0, rng.bit_generator.state)
            # Multi-process backends buffer per-rank spans/metrics worker-side;
            # pull the deltas into the driver's trace at each epoch boundary
            # (close() collects whatever the final partial epoch leaves).
            comm.collect_worker_telemetry()
            if stop or steps >= max_steps:
                break
        lead = ranks[0].model
        governor.finalize(lead)
        if config.restore_best and governor.best_state is not None:
            # keep the replicas bit-identical after restoration
            for rank in ranks[1:]:
                rank.model.load_state_dict(governor.best_state)
        return GNNTrainResult(
            model=lead,
            history=history,
            timers=timers,
            comm_stats=comm.stats,
            skipped_graphs=skipped,
            trained_steps=steps,
            checkpointed_steps=checkpointed_steps,
            config=config,
            resumed_epoch=runtime.resumed_epoch,
            checkpoints_written=runtime.checkpoints_written,
            resume_fallback_path=runtime.resume_fallback_path,
        )
    finally:
        comm.close()


# ----------------------------------------------------------------------
def train_gnn(
    train_graphs: Sequence[EventGraph],
    val_graphs: Sequence[EventGraph],
    config: GNNTrainConfig,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> GNNTrainResult:
    """Train the GNN stage under the configured regime.

    Parameters
    ----------
    train_graphs, val_graphs:
        Labelled event graphs (candidate-segment graphs).
    config:
        See :class:`repro.pipeline.config.GNNTrainConfig`.  With
        ``checkpoint_every`` / ``checkpoint_path`` set, complete trainer
        state is checkpointed periodically (atomic + checksummed); with
        ``resume_from``, training continues from that checkpoint and is
        bit-identical to an uninterrupted run.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` injecting deterministic
        communication / checkpoint-I/O failures, for exercising the
        recovery paths (tests and chaos drills).
    retry_policy:
        Backoff schedule for transient faults (defaults to
        :class:`repro.faults.RetryPolicy`); all delays run on a simulated
        clock.

    Guardrails (see ``docs/resilience.md``)
    ---------------------------------------
    With ``config.validate_inputs``, malformed graphs (non-finite
    features, out-of-range edges, missing labels) are quarantined at
    ingestion instead of crashing an epoch deep into training.  With
    ``config.watchdog``, a :class:`~repro.guard.StabilityWatchdog`
    observes every step; on divergence (NaN/Inf loss or gradient, loss
    spike) training rolls back to the last checkpoint, backs off the
    learning rate by ``watchdog_lr_backoff``, and retries — at most
    ``watchdog_max_rollbacks`` times before
    :class:`~repro.guard.TrainingUnstableError` escapes.
    """
    if not train_graphs:
        raise ValueError("no training graphs")
    quarantined = 0
    if config.validate_inputs:
        quarantine = Quarantine(GraphValidator(), context="train_gnn", kind="graph")
        train_graphs = quarantine.filter(list(train_graphs))
        val_graphs = quarantine.filter(list(val_graphs))
        quarantined = quarantine.quarantined
        if not train_graphs:
            raise ValueError(
                "every training graph was quarantined "
                f"({quarantined} dropped); nothing left to train on"
            )
    if any(g.edge_labels is None for g in list(train_graphs) + list(val_graphs)):
        raise ValueError("all graphs must carry edge labels")
    pos_weight = (
        config.pos_weight
        if config.pos_weight is not None
        else derive_pos_weight(train_graphs)
    )
    loss_fn = BCEWithLogitsLoss(pos_weight=pos_weight)

    watchdog: Optional[StabilityWatchdog] = None
    if config.watchdog:
        watchdog = StabilityWatchdog(
            WatchdogConfig(
                window=config.watchdog_window,
                spike_factor=config.watchdog_spike_factor,
                max_rollbacks=config.watchdog_max_rollbacks,
                lr_backoff=config.watchdog_lr_backoff,
            )
        )

    attempt = config
    while True:
        try:
            result = _train(
                train_graphs, val_graphs, attempt, loss_fn,
                fault_plan, retry_policy, watchdog,
            )
            break
        except (DivergenceError, FloatingPointError) as exc:
            if watchdog is None:
                raise
            rollback_target = attempt.checkpoint_path
            if (
                not watchdog.can_rollback()
                or rollback_target is None
                or not os.path.exists(rollback_target)
            ):
                raise TrainingUnstableError(
                    f"training diverged ({exc}) with no rollback available "
                    f"(rollbacks used: {watchdog.rollbacks}/"
                    f"{watchdog.config.max_rollbacks})",
                    rollbacks=watchdog.rollbacks,
                    last_error=exc,
                ) from exc
            factor = watchdog.register_rollback()
            new_lr = attempt.lr * factor
            get_metrics().counter("guard.watchdog.rollbacks").add(1)
            get_metrics().gauge("guard.watchdog.lr").set(new_lr)
            get_tracer().event(
                "guard.rollback",
                category="guard",
                reason=str(exc),
                lr=new_lr,
                rollback=watchdog.rollbacks,
            )
            attempt = attempt.replace(lr=new_lr, resume_from=rollback_target)

    if watchdog is not None:
        result.watchdog_rollbacks = watchdog.rollbacks
    result.quarantined_graphs = quarantined
    telemetry = get_telemetry()
    if telemetry is not None:
        # snapshot training + comm counters into the exported metrics
        telemetry.record_training(result)
    return result
