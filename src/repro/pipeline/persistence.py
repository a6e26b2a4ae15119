"""Pipeline checkpointing: save/load a fitted pipeline to one ``.npz``.

A fitted :class:`repro.pipeline.ExaTrkXPipeline` holds three trained
networks (embedding, filter, GNN) plus its configuration.  This module
serialises all of it into a single compressed archive so inference can
run in a fresh process without retraining — the deployment path of the
production pipeline.

Configs are stored as JSON (dataclasses → dict); parameter arrays are
stored under namespaced keys (``embedding/…``, ``filter/…``, ``gnn/…``).

Durability: archives are written atomically (temp file + ``os.replace``)
with an embedded SHA-256 content checksum, and loading translates every
low-level corruption symptom (truncated zip, bit-flipped member, missing
entry) into a :class:`repro.io.CheckpointError` that names the file.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict

import numpy as np

from ..detector.geometry import DetectorGeometry
from ..io.serialization import (
    CheckpointError,
    atomic_savez,
    open_archive,
    pack_prefixed,
    unpack_prefixed,
)
from .config import GNNTrainConfig, PipelineConfig
from .pipeline import ExaTrkXPipeline
from .trainers import GNNTrainResult, _model_factory

__all__ = ["save_pipeline", "load_pipeline", "CheckpointError"]

_META_FIELDS = 5  # network widths stored in the "meta" entry


def _config_to_json(config: PipelineConfig) -> str:
    payload = dataclasses.asdict(config)
    return json.dumps(payload)


# Fields of archives written before the module map left; no saved pipeline
# used them (only a module-map pipeline did, and it could not be saved).
_RETIRED_FIELDS = ("module_map_phi_sectors", "module_map_z_sectors")
# A GNN field whose one remaining value is the default: an archive saved
# with the unfused path holds the same weights under the same keys.
_RETIRED_GNN_FIELDS = ("fused_kernels",)


def _config_from_json(text: str) -> PipelineConfig:
    payload = json.loads(text)
    for name in _RETIRED_FIELDS:
        payload.pop(name, None)
    gnn = payload.pop("gnn")
    for name in _RETIRED_GNN_FIELDS:
        gnn.pop(name, None)
    gnn = GNNTrainConfig(**gnn)
    return PipelineConfig(gnn=gnn, **payload)


def _load_stage_state(net, prefix: str, archive, path: str) -> None:
    """Load one stage's weights, naming the archive on any mismatch."""
    try:
        net.load_state_dict(unpack_prefixed(archive, prefix))
        net.eval()
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"pipeline archive {path!r} has incomplete or mismatched "
            f"{prefix!r} stage weights: {exc}"
        ) from exc


def save_pipeline(pipeline: ExaTrkXPipeline, path: str) -> None:
    """Serialise a fitted pipeline to ``path`` (.npz).

    Raises
    ------
    RuntimeError
        If any stage has not been fitted.
    """
    if (
        pipeline.embedding.net is None
        or pipeline.filter.net is None
        or pipeline.gnn.result is None
    ):
        raise RuntimeError("cannot save an unfitted pipeline")
    payload: Dict[str, np.ndarray] = {
        "config_json": np.frombuffer(
            _config_to_json(pipeline.config).encode("utf-8"), dtype=np.uint8
        )
    }
    pack_prefixed(payload, "embedding", pipeline.embedding.net.state_dict())
    pack_prefixed(payload, "filter", pipeline.filter.net.state_dict())
    pack_prefixed(payload, "gnn", pipeline.gnn.model.state_dict())
    # widths needed to rebuild the networks
    payload["meta"] = np.array(
        [
            pipeline.embedding.net.config.node_features,
            pipeline.filter.net.config.node_features,
            pipeline.filter.net.config.edge_features,
            pipeline.gnn.model.config.node_features,
            pipeline.gnn.model.config.edge_features,
        ],
        dtype=np.int64,
    )
    # atomic write + checksum: a crash mid-save can never leave a
    # truncated archive under the target name
    atomic_savez(path, payload)


def load_pipeline(path: str, geometry: DetectorGeometry) -> ExaTrkXPipeline:
    """Rebuild a fitted pipeline from :func:`save_pipeline` output.

    The returned pipeline supports ``reconstruct`` / ``score_event`` /
    ``diagnose_event`` immediately; ``fit`` would retrain from scratch.

    Raises
    ------
    CheckpointError
        If the archive is missing, truncated, bit-flipped (checksum
        mismatch), structurally incomplete, or holds a config field this
        version does not know — never a raw ``zipfile.BadZipFile`` /
        ``KeyError`` / ``TypeError``.
    """
    with open_archive(path) as archive:
        try:
            config = _config_from_json(bytes(archive["config_json"]).decode("utf-8"))
            meta = archive["meta"]
        except (KeyError, TypeError, ValueError) as exc:
            # TypeError: a config field this version does not have
            raise CheckpointError(
                f"pipeline archive {path!r} is missing or has a malformed "
                f"config/meta entry: {exc}"
            ) from exc
        if meta.ndim != 1 or meta.size != _META_FIELDS:
            raise CheckpointError(
                f"pipeline archive {path!r} has a malformed 'meta' entry: "
                f"expected {_META_FIELDS} network widths, found shape {meta.shape}"
            )
        emb_nf, fil_nf, fil_ef, gnn_nf, gnn_ef = (int(v) for v in meta)

        pipeline = ExaTrkXPipeline(config, geometry)

        emb_net = pipeline.embedding.build_net(emb_nf)
        _load_stage_state(emb_net, "embedding", archive, path)
        pipeline.embedding.net = emb_net

        fil_net = pipeline.filter.build_net(fil_nf, fil_ef)
        _load_stage_state(fil_net, "filter", archive, path)
        pipeline.filter.net = fil_net

        # the trainer's factory, so the precision survives a reload
        gnn_model = _model_factory(config.gnn, gnn_nf, gnn_ef)()
        _load_stage_state(gnn_model, "gnn", archive, path)
        from ..metrics import TrainingHistory

        pipeline.gnn.result = GNNTrainResult(
            model=gnn_model,
            history=TrainingHistory(label="loaded"),
            config=config.gnn,
        )
    return pipeline
