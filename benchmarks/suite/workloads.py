"""The four frozen workloads and their seeded input generators.

Every value that shapes the load is written out here — no dataset
registry lookup, no reliance on a library default for anything that
changes the work done (knobs that only switch optional machinery on —
checkpointing, watchdog, fault plans — keep their "off" defaults; the
recipe hash in the fingerprint covers the *full* config, so a drifting
default still shows).

``--seed`` is the only input.  It drives what varies between runs of a
real system on one dataset: the training seed (weight init, batch
schedule, ShaDow sampling) and the order of the traffic (which event
arrives in which slot, replay shuffles).  The event pools and the
open-loop arrival schedules are part of the frozen recipe — event ``i``
of stream ``tag`` is drawn from ``default_rng([DATA_SEED, tag, i])``,
pass ``k`` arrives on the Poisson schedule of ``[DATA_SEED, TAG_ARRIVAL,
k]`` — so the digest of the generated inputs is the same for every seed
and is checked on every run, and the run-to-run spread measures the
program, not how expensive a particular seed's events or how bursty its
arrivals happen to be (across ten seeds a pass's tail latency moved by
17 % from the schedule alone, by 4 % with the schedule fixed).

Sizes are set by the driver's time cap (92 runs in 3420 s, so ≈30 s per
invocation including three set-ups), not by the 30–45 s sections the
defining issue sketched; see README.md for what was scaled and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.detector import (
    DetectorGeometry,
    Event,
    EventSimulator,
    GeometricBuilderConfig,
    ParticleGun,
    build_candidate_graph,
)
from repro.graph import EventGraph
from repro.pipeline import GNNTrainConfig, PipelineConfig
from repro.serve import ServeConfig

__all__ = [
    "DEFAULT_SEED",
    "DATA_SEED",
    "SimRecipe",
    "TrainWorkload",
    "ServeWorkload",
    "WORKLOADS",
    "workload",
    "make_simulator",
    "generate_events",
    "build_graphs",
    "graph_digest",
    "event_digest",
    "recipe_hash",
]

DEFAULT_SEED = 0
#: Seed of the frozen event pools (training graphs, fit events, requests).
DATA_SEED = 20250704

# stream tags for default_rng([DATA_SEED or seed, tag, i])
TAG_TRAIN, TAG_VAL, TAG_SERVE, TAG_ARRIVAL, TAG_ORDER = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class SimRecipe:
    """Detector-simulation knobs of one workload (10-layer barrel)."""

    particles_per_event: int
    pt_min: float
    pt_max: float = 10.0
    eta_max: float = 1.5
    vertex_sigma_z: float = 30.0
    vertex_sigma_xy: float = 0.01
    hit_efficiency: float = 0.98
    sigma_rphi: float = 0.5
    sigma_z: float = 1.0
    noise_fraction: float = 0.05
    min_hits: int = 3
    multiple_scattering: float = 0.0


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    why: str
    sim: SimRecipe
    builder: GeometricBuilderConfig
    num_train: int
    num_val: int
    gnn: GNNTrainConfig  # its seed is replaced by --seed at run time
    # out-of-core streaming: (max_shard_bytes, resident budget as a share
    # of the store's bytes); None trains from RAM
    store: Optional[Tuple[int, float]] = None
    min_calls: int = 3  # train_gnn calls timed at least (after one warm-up call)
    coverage_floor: float = 0.95  # share of the traced wall in named layers


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    sim: SimRecipe
    pipeline: PipelineConfig
    fit_train: int
    fit_val: int
    unique_events: int
    serve: ServeConfig
    open_loop: bool
    # open loop: absolute offered rates frozen at definition time, and
    # the latency limit of the SLO share; closed loop: replays and the
    # client's batch size
    rate_lo: float = 0.0
    rate_hi: float = 0.0
    slo_limit_ms: float = 0.0
    slo_passes: int = 3  # passes at rate_hi the SLO share is pooled over
    replays: int = 1
    client_batch: int = 8
    tail_percentile: float = 99.0
    min_passes: int = 3
    parity_events: int = 16  # re-run through reconstruct() end to end (the traced run: all)
    coverage_floor: float = 0.95  # share of the traced wall in named layers


def _gnn(**kw) -> GNNTrainConfig:
    base = dict(
        mode="bulk",
        epochs=1000,  # never reached: max_steps ends every call
        lr=1e-3,
        allreduce="coalesced",
        capacity_bytes=None,
        pos_weight=None,
        threshold=0.5,
        seed=0,
        eval_every=10**9,  # evaluation is outside the timed section
        scheduler=None,
        prefetch_depth=2,
        fused_kernels=True,
        precision="float32",
    )
    base.update(kw)
    return GNNTrainConfig(**base)


_TRAIN_EX3_TRUE = TrainWorkload(
    name="train_ex3_true",
    why=(
        "Ex3 at the paper's true graph size (~13.7K vertices/~48K edges), hidden 64 x 8 layers, "
        "ShaDow d=3 s=6, bulk k=4, batch 32, P=1 sim, in RAM, no prefetch: "
        "forward+backward ~97%, no comm, no store"
    ),
    sim=SimRecipe(particles_per_event=1400, pt_min=0.5, noise_fraction=0.05),
    builder=GeometricBuilderConfig(
        dphi_max=0.05, dz_max=60.0, max_layer_skip=1, feature_scheme="compact"
    ),
    num_train=1,
    num_val=1,
    gnn=_gnn(
        batch_size=32,
        hidden=64,
        num_layers=8,
        mlp_layers=2,
        depth=3,
        fanout=6,
        bulk_k=4,
        world_size=1,
        backend="sim",
        prefetch_workers=0,
        max_steps=8,
    ),
)

_TRAIN_CTD_STREAM_P2 = TrainWorkload(
    name="train_ctd_stream_p2",
    why=(
        "CTD-like dense graphs (~1.25K vertices, ~24 edges/vertex, 14/8 features), 8 graphs "
        "streamed from an EventStore at a 25% byte budget, prefetch 1, P=2 proc coalesced, "
        "batch 64: comm, store, prefetch"
    ),
    sim=SimRecipe(particles_per_event=120, pt_min=0.4, noise_fraction=0.10),
    builder=GeometricBuilderConfig(
        dphi_max=0.30, dz_max=600.0, max_layer_skip=3, feature_scheme="rich"
    ),
    num_train=8,
    num_val=1,
    gnn=_gnn(
        batch_size=64,
        hidden=32,
        num_layers=4,
        mlp_layers=3,
        depth=2,
        fanout=4,
        bulk_k=4,
        world_size=2,
        backend="proc",
        prefetch_workers=1,
        max_steps=12,
    ),
    store=(1 << 20, 0.25),
)


def _pipeline(hidden: int) -> PipelineConfig:
    return PipelineConfig(
        construction="metric_learning",
        embedding_dim=8,
        embedding_hidden=hidden,
        embedding_epochs=6,
        embedding_lr=1e-2,
        embedding_margin=1.0,
        negatives_per_positive=4,
        hard_negative_mining=False,
        frnn_radius=0.3,
        frnn_max_neighbors=40,
        filter_hidden=hidden,
        filter_epochs=6,
        filter_lr=1e-2,
        filter_threshold=0.1,
        feature_scheme="compact",
        mlp_layers=3,
        gnn=GNNTrainConfig(
            mode="bulk",
            epochs=3,
            batch_size=64,
            hidden=16,
            num_layers=2,
            mlp_layers=2,
            lr=1e-3,
            depth=2,
            fanout=4,
            bulk_k=4,
            world_size=1,
            allreduce="coalesced",
            backend="sim",
            threshold=0.5,
            seed=0,
            eval_every=1,
            prefetch_workers=0,
            fused_kernels=True,
            precision="float32",
        ),
        min_track_hits=3,
        track_builder="cc",
        seed=0,
        validate_inputs=False,
    )


def _serve(**kw) -> ServeConfig:
    base = dict(
        max_batch_events=8,
        max_wait_ms=5.0,
        max_queue_events=64,
        workers=0,
        latency_budget_ms=None,
        degraded_threshold=0.5,
        cache_capacity=128,
        sim_service_time_s=None,
        validate_inputs=False,
        request_timeout_ms=None,
        breaker_threshold=None,
        precision="float32",
    )
    base.update(kw)
    return ServeConfig(**base)


_SERVE_SMALL_OPEN = ServeWorkload(
    name="serve_small_open",
    why=(
        "192 distinct 25-particle events (~235 hits) per pass, open loop (frozen Poisson) on a "
        "SimClock, batch 8 / wait 5 ms / queue 64, at 18/s and 50/s (1/4, 2/3 of capacity): "
        "no cache reuse, queues decide"
    ),
    sim=SimRecipe(particles_per_event=25, pt_min=0.5, noise_fraction=0.05),
    pipeline=_pipeline(hidden=256),
    fit_train=4,
    fit_val=1,
    unique_events=192,
    serve=_serve(),
    open_loop=True,
    # p95 follows the box's speed 1.05x here, 1.4x at 25/s: the latency rate
    # is light so that the tail measures the program, rate_hi is the heavy one
    rate_lo=18.0,
    rate_hi=50.0,
    slo_limit_ms=200.0,
    tail_percentile=95.0,  # the highest with ten samples beyond it in a 192-request pass
    min_passes=4,
    parity_events=32,
)

_SERVE_LARGE_REPLAY = ServeWorkload(
    name="serve_large_replay",
    why=(
        "16 unique 100-particle events (~940 hits) x 3 shuffled replays, closed loop, one client "
        "sending batches of 8, default stage cache: stage compute dominates, 2/3 of requests "
        "are cache hits"
    ),
    sim=SimRecipe(particles_per_event=100, pt_min=0.5, noise_fraction=0.05),
    pipeline=_pipeline(hidden=128),
    fit_train=2,
    fit_val=1,
    unique_events=16,
    serve=_serve(),
    open_loop=False,
    replays=3,
    client_batch=8,
    tail_percentile=95.0,
    min_passes=5,  # per pass p95 = its slowest (all-miss) client batch
    parity_events=16,
)

WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        _TRAIN_EX3_TRUE,
        _TRAIN_CTD_STREAM_P2,
        _SERVE_SMALL_OPEN,
        _SERVE_LARGE_REPLAY,
    )
}


def _smoke(w):
    """Same code paths at a size the suite's own test runs in seconds
    (fixed per-call glue weighs more there, hence the lower floor)."""
    if isinstance(w, TrainWorkload):
        sim = dataclasses.replace(w.sim, particles_per_event=max(w.sim.particles_per_event // 8, 30))
        gnn = w.gnn.replace(hidden=16, num_layers=2, batch_size=min(w.gnn.batch_size, 32))
        return dataclasses.replace(
            w, sim=sim, gnn=gnn, num_train=min(w.num_train, 4),
            store=(1 << 16, 0.25) if w.store else None, min_calls=1,
            coverage_floor=0.8,
        )
    sim = dataclasses.replace(w.sim, particles_per_event=min(w.sim.particles_per_event, 30))
    return dataclasses.replace(
        w, sim=sim, unique_events=min(w.unique_events, 24), min_passes=1, slo_passes=1,
        parity_events=min(w.parity_events, 8), coverage_floor=0.8,
    )


def workload(name: str, smoke: bool = False):
    try:
        w = WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return _smoke(w) if smoke else w


# ----------------------------------------------------------------------
# seeded input generation
# ----------------------------------------------------------------------
def make_simulator(sim: SimRecipe) -> Tuple[EventSimulator, DetectorGeometry]:
    geometry = DetectorGeometry.barrel_only()
    gun = ParticleGun(
        pt_min=sim.pt_min,
        pt_max=sim.pt_max,
        eta_max=sim.eta_max,
        vertex_sigma_z=sim.vertex_sigma_z,
        vertex_sigma_xy=sim.vertex_sigma_xy,
    )
    simulator = EventSimulator(
        geometry=geometry,
        gun=gun,
        particles_per_event=sim.particles_per_event,
        hit_efficiency=sim.hit_efficiency,
        sigma_rphi=sim.sigma_rphi,
        sigma_z=sim.sigma_z,
        noise_fraction=sim.noise_fraction,
        min_hits=sim.min_hits,
        multiple_scattering=sim.multiple_scattering,
    )
    return simulator, geometry


def generate_events(
    simulator: EventSimulator, tag: int, count: int, first_id: int = 0
) -> Tuple[List[Event], float]:
    """``count`` events of pool ``tag``; returns them and the seconds spent."""
    t0 = perf_counter()
    events = [
        simulator.generate(np.random.default_rng([DATA_SEED, tag, i]), event_id=first_id + i)
        for i in range(count)
    ]
    return events, perf_counter() - t0


def build_graphs(
    events: Sequence[Event], geometry: DetectorGeometry, builder: GeometricBuilderConfig
) -> Tuple[List[EventGraph], float]:
    t0 = perf_counter()
    graphs = [build_candidate_graph(e, geometry, builder) for e in events]
    return graphs, perf_counter() - t0


# ----------------------------------------------------------------------
# digests: prove two runs were handed the same load
# ----------------------------------------------------------------------
def _checksum(arrays: Sequence[np.ndarray]) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def graph_digest(graphs: Sequence[EventGraph]) -> Dict[str, object]:
    """Counts plus a checksum of the integer arrays (edges, labels) — not of
    the float features, whose sin/cos differ in the last bit between CPUs."""
    arrays: List[np.ndarray] = []
    for g in graphs:
        arrays += [g.edge_index, g.edge_labels]
    return {
        "graphs": len(graphs),
        "vertices": int(sum(g.num_nodes for g in graphs)),
        "edges": int(sum(g.num_edges for g in graphs)),
        "checksum": _checksum(arrays),
    }


def event_digest(events: Sequence[Event]) -> Dict[str, object]:
    """Counts plus a checksum of the integer arrays (layers, truth)."""
    arrays: List[np.ndarray] = []
    for e in events:
        arrays += [e.layer_ids, e.particle_ids]
    return {
        "events": len(events),
        "hits": int(sum(e.num_hits for e in events)),
        "checksum": _checksum(arrays),
    }


def recipe_hash(w) -> str:
    """Hash of the workload's full recipe, library defaults included."""
    doc = json.dumps(dataclasses.asdict(w), sort_keys=True, default=str)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]
