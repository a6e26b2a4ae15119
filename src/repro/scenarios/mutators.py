"""Seeded hostile-workload event mutators.

Each mutator is a deterministic transformation of a list of simulated
:class:`repro.detector.Event` objects — the hostile counterpart of the
clean simulation in :mod:`repro.detector.events`.  Mutators compose: a
scenario applies an ordered list of :class:`MutatorSpec` entries, each
with its own derived RNG stream, so the same (spec list, seed) pair
always produces the byte-identical event feed.

The catalog (see docs/scenarios.md):

``pileup``
    Merge each event with its neighbours in the feed — a pileup
    multiplier sweep without re-simulating (truth particle ids are
    re-offset by :func:`repro.detector.merge_events`).
``noise_burst``
    Append Poisson-distributed fake hits uniform over the detector
    surfaces (a noisy-DAQ burst).
``dead_layers``
    Drop every hit on the named layers (a dead module/layer).
``misalign``
    Rigidly shift the hits of the named layers by a fixed random
    direction scaled to ``shift_mm`` (survey misalignment).
``duplicate_hits``
    Re-emit a fraction of hits, optionally jittered — exact copies
    (``jitter_mm=0``) trip the ``duplicate_hits`` validation rule;
    small jitter models merged/double-read clusters that validation
    lets through.
``nan_hits``
    Poison hit coordinates with NaN in every ``stride``-th event (a
    failed calibration) — these must be quarantined, never served.
``degenerate``
    Append adversarially degenerate events: ``star`` (a dense noise
    blob collapsing to a star-shaped graph), ``isolated`` (hits so far
    apart no edge survives), ``giant`` (one particle crossing every
    layer many times — a single giant track).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..detector import Event, merge_events
from ..detector.events import _noise_hit

__all__ = [
    "MutatorSpec",
    "MUTATOR_BUILDERS",
    "build_mutator",
    "apply_mutators",
    "mutator_catalog",
]

#: A mutator maps (events, geometry, rng) -> new event list.
Mutator = Callable[[List[Event], object, np.random.Generator], List[Event]]


@dataclass(frozen=True)
class MutatorSpec:
    """One named mutation with its parameters (sorted, hence canonical)."""

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **params) -> "MutatorSpec":
        if name not in MUTATOR_BUILDERS:
            raise KeyError(
                f"unknown mutator {name!r}; known: {sorted(MUTATOR_BUILDERS)}"
            )
        spec = cls(name=name, params=tuple(sorted(params.items())))
        build_mutator(spec)  # eagerly reject unknown/invalid parameters
        return spec

    def kwargs(self) -> Dict:
        return {k: v for k, v in self.params}

    def to_doc(self) -> Dict:
        return {"name": self.name, "params": dict(self.params)}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _append_hits(
    event: Event,
    positions: np.ndarray,
    layer_ids: np.ndarray,
    particle_ids: np.ndarray,
    hit_order: np.ndarray,
) -> Event:
    return dataclasses.replace(
        event,
        positions=np.vstack([event.positions, positions.astype(np.float64)]),
        layer_ids=np.concatenate([event.layer_ids, layer_ids.astype(np.int64)]),
        particle_ids=np.concatenate(
            [event.particle_ids, particle_ids.astype(np.int64)]
        ),
        hit_order=np.concatenate([event.hit_order, hit_order.astype(np.int64)]),
    )


def _mask_hits(event: Event, keep: np.ndarray) -> Event:
    return dataclasses.replace(
        event,
        positions=event.positions[keep],
        layer_ids=event.layer_ids[keep],
        particle_ids=event.particle_ids[keep],
        hit_order=event.hit_order[keep],
    )


# ----------------------------------------------------------------------
# mutator builders
# ----------------------------------------------------------------------
def _build_pileup(multiplier: int = 2) -> Mutator:
    """Merge each event with its ``multiplier - 1`` cyclic neighbours."""
    if multiplier < 2:
        raise ValueError("pileup multiplier must be >= 2")

    def mutate(events, geometry, rng):
        n = len(events)
        out = []
        for i, ev in enumerate(events):
            group = [events[(i + j) % n] for j in range(multiplier)]
            out.append(merge_events(group, event_id=ev.event_id))
        return out

    return mutate


def _build_noise_burst(mean_hits: float = 20.0) -> Mutator:
    """Append ``Poisson(mean_hits)`` fake hits per event."""
    if mean_hits <= 0:
        raise ValueError("mean_hits must be > 0")

    def mutate(events, geometry, rng):
        out = []
        for ev in events:
            k = int(rng.poisson(mean_hits))
            if k == 0:
                out.append(ev)
                continue
            hits = [_noise_hit(geometry.surfaces, rng) for _ in range(k)]
            pos = np.array([(x, y, z) for x, y, z, _ in hits], dtype=np.float64)
            layers = np.array([l for _, _, _, l in hits], dtype=np.int64)
            out.append(
                _append_hits(
                    ev,
                    pos,
                    layers,
                    np.zeros(k, dtype=np.int64),  # pid 0 = noise
                    np.full(k, -1, dtype=np.int64),
                )
            )
        return out

    return mutate


def _build_dead_layers(layers: Sequence[int] = (3,)) -> Mutator:
    """Drop every hit recorded on the named layers."""
    dead = np.array(sorted(int(l) for l in layers), dtype=np.int64)
    if dead.size == 0:
        raise ValueError("dead_layers needs at least one layer")

    def mutate(events, geometry, rng):
        return [_mask_hits(ev, ~np.isin(ev.layer_ids, dead)) for ev in events]

    return mutate


def _build_misalign(layers: Sequence[int] = (1, 2), shift_mm: float = 2.0) -> Mutator:
    """Rigidly shift the named layers by ``shift_mm`` in a random direction.

    One direction is drawn per layer per apply (not per event): a real
    misalignment is a fixed survey error, identical across the feed.
    """
    moved = sorted(int(l) for l in layers)
    if not moved:
        raise ValueError("misalign needs at least one layer")
    if shift_mm <= 0:
        raise ValueError("shift_mm must be > 0")

    def mutate(events, geometry, rng):
        shifts = {}
        for layer in moved:
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            shifts[layer] = shift_mm * direction
        out = []
        for ev in events:
            pos = ev.positions.copy()
            for layer, delta in shifts.items():
                pos[ev.layer_ids == layer] += delta
            out.append(dataclasses.replace(ev, positions=pos))
        return out

    return mutate


def _build_duplicate_hits(fraction: float = 0.1, jitter_mm: float = 0.0) -> Mutator:
    """Re-emit a random fraction of each event's hits as spurious copies.

    The copies carry noise truth labels (particle 0, order −1) — a
    double-read or split cluster yields one extra *untracked* hit, not
    an ambiguous truth segment.  ``jitter_mm=0`` places the copy exactly
    on top of the original; positive jitter produces merged-cluster
    lookalikes a few hundred microns away.  Either way the copies pass
    critical validation and stress the pipeline's tolerance for
    near-coincident hits.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    if jitter_mm < 0:
        raise ValueError("jitter_mm must be >= 0")

    def mutate(events, geometry, rng):
        out = []
        for ev in events:
            n = ev.num_hits
            k = max(1, int(round(fraction * n)))
            idx = rng.choice(n, size=min(k, n), replace=False)
            pos = ev.positions[idx].copy()
            if jitter_mm > 0:
                pos += rng.normal(scale=jitter_mm, size=pos.shape)
            m = len(idx)
            out.append(
                _append_hits(
                    ev,
                    pos,
                    ev.layer_ids[idx],
                    np.zeros(m, dtype=np.int64),
                    np.full(m, -1, dtype=np.int64),
                )
            )
        return out

    return mutate


def _build_nan_hits(hits: int = 1, stride: int = 2) -> Mutator:
    """Poison ``hits`` coordinates with NaN in every ``stride``-th event."""
    if hits < 1 or stride < 1:
        raise ValueError("hits and stride must be >= 1")

    def mutate(events, geometry, rng):
        out = []
        for i, ev in enumerate(events):
            if i % stride != 0 or ev.num_hits == 0:
                out.append(ev)
                continue
            pos = ev.positions.copy()
            idx = rng.choice(ev.num_hits, size=min(hits, ev.num_hits), replace=False)
            pos[idx] = np.nan
            out.append(dataclasses.replace(ev, positions=pos))
        return out

    return mutate


def _degenerate_star(geometry, rng: np.random.Generator, event_id: int) -> Event:
    """A dense noise blob: every hit within ~1 mm of one centre point.

    Any radius-based construction connects all of them to all of them —
    the star/clique topology that maximises edge count per hit.
    """
    layer = geometry.barrel[0]
    center = np.array([layer.radius, 0.0, 0.0])
    m = 24
    pos = center + rng.normal(scale=0.5, size=(m, 3))
    pos[0] = center
    return Event(
        positions=pos.astype(np.float64),
        layer_ids=np.full(m, layer.layer_id, dtype=np.int64),
        particle_ids=np.zeros(m, dtype=np.int64),
        hit_order=np.full(m, -1, dtype=np.int64),
        particles=[],
        event_id=event_id,
    )


def _degenerate_isolated(geometry, rng: np.random.Generator, event_id: int) -> Event:
    """One hit per barrel layer, maximally separated in phi and z —
    no two hits close enough to form an edge (all-isolated nodes)."""
    layers = list(geometry.barrel)
    pos, lids = [], []
    for j, layer in enumerate(layers):
        phi = 2.39996 * j  # golden-angle spacing: no accidental pairs
        z = layer.half_length * (-1) ** j * 0.8
        pos.append(
            (layer.radius * np.cos(phi), layer.radius * np.sin(phi), z)
        )
        lids.append(layer.layer_id)
    m = len(pos)
    return Event(
        positions=np.array(pos, dtype=np.float64),
        layer_ids=np.array(lids, dtype=np.int64),
        particle_ids=np.zeros(m, dtype=np.int64),
        hit_order=np.full(m, -1, dtype=np.int64),
        particles=[],
        event_id=event_id,
    )


def _degenerate_giant(geometry, rng: np.random.Generator, event_id: int) -> Event:
    """One particle crossing every barrel layer over several turns — a
    single giant track owning every hit in the event."""
    layers = list(geometry.barrel)
    turns = 4
    pos, lids = [], []
    step = 0
    for t in range(turns):
        for layer in layers:
            phi = 0.35 * step
            z = 0.5 * layer.half_length * np.sin(0.2 * step)
            pos.append(
                (layer.radius * np.cos(phi), layer.radius * np.sin(phi), z)
            )
            lids.append(layer.layer_id)
            step += 1
    m = len(pos)
    return Event(
        positions=np.array(pos, dtype=np.float64),
        layer_ids=np.array(lids, dtype=np.int64),
        particle_ids=np.ones(m, dtype=np.int64),
        hit_order=np.arange(m, dtype=np.int64),
        particles=[],
        event_id=event_id,
    )


_DEGENERATE_BUILDERS = {
    "star": _degenerate_star,
    "isolated": _degenerate_isolated,
    "giant": _degenerate_giant,
}


def _build_degenerate(kind: str = "star", count: int = 1) -> Mutator:
    """Append ``count`` adversarially degenerate events to the feed."""
    if kind not in _DEGENERATE_BUILDERS:
        raise ValueError(
            f"unknown degenerate kind {kind!r}; choose from "
            f"{sorted(_DEGENERATE_BUILDERS)}"
        )
    if count < 1:
        raise ValueError("count must be >= 1")

    def mutate(events, geometry, rng):
        next_id = 1 + max((ev.event_id for ev in events), default=-1)
        builder = _DEGENERATE_BUILDERS[kind]
        extra = [builder(geometry, rng, next_id + i) for i in range(count)]
        return list(events) + extra

    return mutate


MUTATOR_BUILDERS: Dict[str, Callable[..., Mutator]] = {
    "pileup": _build_pileup,
    "noise_burst": _build_noise_burst,
    "dead_layers": _build_dead_layers,
    "misalign": _build_misalign,
    "duplicate_hits": _build_duplicate_hits,
    "nan_hits": _build_nan_hits,
    "degenerate": _build_degenerate,
}


def build_mutator(spec: MutatorSpec) -> Mutator:
    """Instantiate the mutator a spec names (validates its params)."""
    try:
        builder = MUTATOR_BUILDERS[spec.name]
    except KeyError:
        raise KeyError(
            f"unknown mutator {spec.name!r}; known: {sorted(MUTATOR_BUILDERS)}"
        ) from None
    return builder(**spec.kwargs())


def apply_mutators(
    events: Sequence[Event],
    geometry,
    specs: Sequence[MutatorSpec],
    seed: int,
) -> List[Event]:
    """Apply the spec list in order, each with its own derived RNG stream.

    The stream is seeded from ``(seed, position)`` so inserting a
    mutator perturbs only the streams after it — and the same list is
    bit-reproducible run to run.
    """
    out = list(events)
    for k, spec in enumerate(specs):
        rng = np.random.default_rng([seed, k])
        out = build_mutator(spec)(out, geometry, rng)
    return out


def mutator_catalog() -> Dict[str, str]:
    """Mutator name → one-line summary (CLI ``scenarios list``)."""
    return {
        name: (builder.__doc__ or "").strip().splitlines()[0]
        for name, builder in sorted(MUTATOR_BUILDERS.items())
    }
