"""Resumable-trainer checkpoints: complete state, atomic, verifiable.

A 30-epoch multi-rank GNN training run must survive a crash without
losing everything — the fault-tolerance premise of a production
pipeline.  This module serialises the *complete* trainer state to one
versioned, checksummed ``.npz`` archive (written atomically through
:func:`repro.io.serialization.atomic_savez`):

* model parameters (rank 0 — replicas are bit-identical at epoch
  boundaries after DDP synchronisation);
* Adam moments and step count (:meth:`repro.nn.Adam.state_dict`);
* the ``np.random.Generator`` bit-generator state, so the resumed epoch
  draws exactly the permutations / ShaDow fanouts the uninterrupted run
  would have drawn;
* the :class:`~repro.metrics.TrainingHistory` recorded so far;
* early-stop / best-checkpoint governor state (best F1, evals since
  best, scheduler epoch, and the best-model weights when
  ``restore_best`` is on);
* step / skip counters.

The guarantee (verified by the resume-equivalence tests): *train 2N
epochs* is bit-identical to *train N epochs, crash, resume, train N
more* — same final ``state_dict()``, same history — in every training
mode.

Checkpoints refuse to resume under a different training configuration:
every :class:`~repro.pipeline.config.GNNTrainConfig` field except the
checkpoint plumbing itself (``checkpoint_every`` / ``checkpoint_path`` /
``resume_from``) and the epoch budget (``epochs``, which legitimately
grows when extending a finished run) must match.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..io.serialization import (
    CheckpointCorruptError,
    CheckpointError,
    atomic_savez,
    open_archive,
    pack_prefixed,
    unpack_prefixed,
)
from ..metrics import EpochRecord, TrainingHistory
from .config import GNNTrainConfig

__all__ = [
    "CheckpointError",
    "CheckpointCorruptError",
    "TrainerState",
    "save_trainer_checkpoint",
    "load_trainer_checkpoint",
    "checkpoint_history_paths",
    "load_with_fallback",
    "describe_checkpoint",
]

FORMAT_VERSION = 1
_KIND = "repro.gnn-trainer"
# Fields allowed to differ between the checkpointing run and the
# resuming run; everything else participates in training math and must
# match exactly for the deterministic-resume guarantee to hold.  The
# prefetch knobs are exempt by the data-pipeline determinism contract:
# batch contents are bit-identical at any worker count / queue depth.
_RESUME_EXEMPT_FIELDS = (
    "checkpoint_every",
    "checkpoint_path",
    "resume_from",
    "epochs",
    "checkpoint_every_steps",
    "max_steps",
    "prefetch_workers",
    "prefetch_depth",
    # Guardrail knobs are exempt: the watchdog only intervenes on
    # divergence (which a healthy resume does not hit), retention is
    # pure I/O, and the validator admits healthy datasets unchanged —
    # none perturb the math of a run that needed no intervention.
    "validate_inputs",
    "keep_last",
    "watchdog",
    "watchdog_window",
    "watchdog_spike_factor",
    "watchdog_max_rollbacks",
    "watchdog_lr_backoff",
)


@dataclass
class TrainerState:
    """Everything the epoch loop needs to continue where it stopped."""

    epochs_done: int
    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, np.ndarray]
    rng_state: Dict[str, Any]
    history: TrainingHistory
    governor_state: Dict[str, Any]
    best_state: Optional[Dict[str, np.ndarray]] = None
    trained_steps: int = 0
    skipped_graphs: int = 0
    checkpointed_steps: int = 0
    # Mid-epoch cursor: how many plan steps of the current epoch were
    # already consumed, and the losses they produced.
    # ``rng_state`` is then the *epoch-start* state, from which the
    # resuming run rebuilds the identical EpochPlan and skips ahead.
    step_in_epoch: int = 0
    epoch_losses: List[float] = field(default_factory=list)


def _text_entry(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _entry_text(arr: np.ndarray) -> str:
    return bytes(np.asarray(arr, dtype=np.uint8)).decode("utf-8")


def _history_to_jsonable(history: TrainingHistory) -> Dict[str, Any]:
    return {
        "label": history.label,
        "records": [dataclasses.asdict(r) for r in history.records],
    }


def _history_from_jsonable(payload: Dict[str, Any]) -> TrainingHistory:
    history = TrainingHistory(label=payload["label"])
    for rec in payload["records"]:
        history.append(EpochRecord(**rec))
    return history


def _split_checkpoint_path(path: str) -> Tuple[str, str]:
    stem, ext = os.path.splitext(path)
    if not ext:
        ext = ".npz"
    return stem, ext


def _history_name(path: str, state: TrainerState) -> str:
    stem, ext = _split_checkpoint_path(path)
    return f"{stem}.e{state.epochs_done:04d}s{state.step_in_epoch:06d}{ext}"


_HISTORY_RE = re.compile(r"\.e(\d{4,})s(\d{6,})$")


def checkpoint_history_paths(path: str) -> List[str]:
    """Retained sibling checkpoints of ``path``, newest first.

    Retention (``keep_last``) writes every checkpoint both to ``path``
    (the latest) and to ``{stem}.e<EPOCHS>s<STEP>{ext}`` history names;
    this returns the surviving history files ordered by their
    ``(epochs_done, step_in_epoch)`` cursor, newest first.
    """
    stem, ext = _split_checkpoint_path(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    prefix = os.path.basename(stem)
    found: List[Tuple[Tuple[int, int], str]] = []
    if not os.path.isdir(directory):
        return []
    for name in os.listdir(directory):
        if not (name.startswith(prefix + ".") and name.endswith(ext)):
            continue
        core = name[: -len(ext)][len(prefix):]
        match = _HISTORY_RE.fullmatch(core)
        if match is None:
            continue
        key = (int(match.group(1)), int(match.group(2)))
        found.append((key, os.path.join(directory, name)))
    found.sort(reverse=True)
    return [p for _, p in found]


def _retain_and_prune(path: str, state: TrainerState, keep_last: int) -> None:
    """Copy the fresh checkpoint at ``path`` into history; prune old ones."""
    history = _history_name(path, state)
    tmp = history + ".tmp.npz"  # swept by clean_stale_tmp if interrupted
    shutil.copyfile(path, tmp)
    os.replace(tmp, history)
    for stale in checkpoint_history_paths(path)[keep_last:]:
        try:
            os.unlink(stale)
        except OSError:
            pass  # already gone / unremovable: retention is best-effort


def save_trainer_checkpoint(
    path: str,
    config: GNNTrainConfig,
    state: TrainerState,
    fault_plan=None,
    keep_last: Optional[int] = None,
) -> None:
    """Atomically write a trainer checkpoint to ``path``.

    The archive carries a format version, the full training config (for
    resume validation), a JSON meta block (counters, RNG state, history,
    governor bookkeeping), and the parameter / optimiser arrays — all
    covered by a SHA-256 content checksum.

    Parameters
    ----------
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`; its scheduled I/O
        faults fire *before* anything is written, modelling a transient
        storage failure.  Because the write is atomic, a failed attempt
        never damages an existing checkpoint at ``path``.
    keep_last:
        When set, additionally retain this checkpoint under its history
        name (``{stem}.e<EPOCHS>s<STEP>{ext}``) and prune history beyond
        the newest ``keep_last`` files — giving resume a verified
        fallback should the latest checkpoint be corrupted on disk.
    """
    if fault_plan is not None:
        fault_plan.before_checkpoint_write(path)
    meta = {
        "kind": _KIND,
        "format_version": FORMAT_VERSION,
        "epochs_done": state.epochs_done,
        "trained_steps": state.trained_steps,
        "skipped_graphs": state.skipped_graphs,
        "checkpointed_steps": state.checkpointed_steps,
        "rng_state": state.rng_state,
        "step_in_epoch": state.step_in_epoch,
        "epoch_losses": list(state.epoch_losses),
        "governor": state.governor_state,
        "history": _history_to_jsonable(state.history),
        "has_best_state": state.best_state is not None,
    }
    payload: Dict[str, np.ndarray] = {
        "meta_json": _text_entry(json.dumps(meta)),
        "config_json": _text_entry(json.dumps(dataclasses.asdict(config))),
    }
    pack_prefixed(payload, "model", state.model_state)
    pack_prefixed(payload, "optim", state.optimizer_state)
    if state.best_state is not None:
        pack_prefixed(payload, "best", state.best_state)
    atomic_savez(path, payload)
    if keep_last is not None and keep_last > 0:
        _retain_and_prune(path, state, keep_last)


def _check_config(
    path: str,
    saved: Dict[str, Any],
    config: GNNTrainConfig,
    extra_exempt: Tuple[str, ...] = (),
) -> None:
    current = dataclasses.asdict(config)
    mismatched: List[str] = []
    for key, value in saved.items():
        if key in _RESUME_EXEMPT_FIELDS or key in extra_exempt:
            continue
        if key in current and current[key] != value:
            mismatched.append(f"{key}: checkpoint={value!r} vs run={current[key]!r}")
    if mismatched:
        raise CheckpointError(
            f"checkpoint {path!r} was written under a different training "
            "configuration; refusing to resume (" + "; ".join(mismatched) + ")"
        )


def load_trainer_checkpoint(
    path: str,
    config: GNNTrainConfig,
    extra_exempt: Tuple[str, ...] = (),
) -> TrainerState:
    """Load and validate a checkpoint for resuming under ``config``.

    ``extra_exempt`` names config fields additionally allowed to differ
    from the checkpointed run, beyond the standard plumbing exemptions.
    The stability watchdog passes ``("lr",)`` when resuming after a
    rollback, because LR backoff is exactly a deliberate lr change.

    Raises
    ------
    CheckpointError
        If the file is missing, corrupt (bad checksum / truncated), of an
        unknown format version, or written under an incompatible
        configuration.
    """
    with open_archive(path) as archive:
        try:
            meta = json.loads(_entry_text(archive["meta_json"]))
            saved_config = json.loads(_entry_text(archive["config_json"]))
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} is missing or has a malformed meta block: {exc}"
            ) from exc
        if meta.get("kind") != _KIND:
            raise CheckpointError(
                f"{path!r} is not a trainer checkpoint (kind={meta.get('kind')!r})"
            )
        if meta.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has format version "
                f"{meta.get('format_version')!r}; this build reads version "
                f"{FORMAT_VERSION}"
            )
        _check_config(path, saved_config, config, extra_exempt)
        if meta["epochs_done"] >= config.epochs and not meta.get("step_in_epoch"):
            raise CheckpointError(
                f"checkpoint {path!r} already covers {meta['epochs_done']} "
                f"epochs; nothing to resume for an epoch budget of "
                f"{config.epochs}"
            )
        model_state = unpack_prefixed(archive, "model")
        if not model_state:
            raise CheckpointError(f"checkpoint {path!r} contains no model parameters")
        best_state = unpack_prefixed(archive, "best") if meta.get("has_best_state") else None
        return TrainerState(
            epochs_done=int(meta["epochs_done"]),
            model_state=model_state,
            optimizer_state=unpack_prefixed(archive, "optim"),
            rng_state=meta["rng_state"],
            history=_history_from_jsonable(meta["history"]),
            governor_state=meta["governor"],
            best_state=best_state,
            trained_steps=int(meta["trained_steps"]),
            skipped_graphs=int(meta["skipped_graphs"]),
            checkpointed_steps=int(meta["checkpointed_steps"]),
            # absent in pre-mid-epoch-checkpoint archives (same format
            # version; the keys default to "epoch boundary")
            step_in_epoch=int(meta.get("step_in_epoch", 0)),
            epoch_losses=[float(x) for x in meta.get("epoch_losses", [])],
        )


def load_with_fallback(
    path: str,
    config: GNNTrainConfig,
    extra_exempt: Tuple[str, ...] = (),
) -> Tuple[TrainerState, str, bool]:
    """Load ``path``; on *byte corruption*, fall back to retained history.

    Only :class:`CheckpointCorruptError` (bad zip, checksum mismatch,
    truncation) triggers the fallback scan — a missing file, unknown
    format, or config mismatch is a caller mistake and propagates
    unchanged rather than being papered over with stale state.  History
    candidates (see :func:`checkpoint_history_paths`) are tried newest
    first; each one re-verifies its checksum, so a fallback never
    resumes from silently damaged bytes.

    Returns ``(state, used_path, fell_back)``; when no candidate
    verifies, the *original* corruption error is re-raised so the root
    cause stays visible.
    """
    try:
        return load_trainer_checkpoint(path, config, extra_exempt), path, False
    except CheckpointCorruptError as primary:
        for candidate in checkpoint_history_paths(path):
            if os.path.abspath(candidate) == os.path.abspath(path):
                continue
            try:
                state = load_trainer_checkpoint(candidate, config, extra_exempt)
            except CheckpointError:
                continue
            return state, candidate, True
        raise primary


def describe_checkpoint(path: str) -> Dict[str, Any]:
    """Human-oriented summary of a checkpoint (CLI / debugging helper)."""
    with open_archive(path) as archive:
        meta = json.loads(_entry_text(archive["meta_json"]))
        config = json.loads(_entry_text(archive["config_json"]))
    return {
        "kind": meta.get("kind"),
        "format_version": meta.get("format_version"),
        "epochs_done": meta.get("epochs_done"),
        "trained_steps": meta.get("trained_steps"),
        "step_in_epoch": meta.get("step_in_epoch", 0),
        "mode": config.get("mode"),
        "world_size": config.get("world_size"),
        "seed": config.get("seed"),
    }
