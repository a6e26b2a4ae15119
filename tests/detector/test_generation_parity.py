"""Differential tests: the array-pass data path against the per-hit one.

``EventSimulator.generate`` propagates every particle in one batched
crossing solve, smears every hit in one pass and draws each particle's
randomness in two calls; ``build_candidate_graph`` flattens each KD-tree
query in one pass over a tree built once per layer.  The oracles below are
the per-particle / per-hit formulation those replaced, kept verbatim as
test-only references: every output bit and the generator's final state
must agree.
"""

import sys
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.detector import events as events_module
from repro.detector import (
    DetectorGeometry,
    EventSimulator,
    GeometricBuilderConfig,
    Particle,
    ParticleGun,
    TrueHit,
    build_candidate_graph,
    propagate,
    propagate_with_scattering,
)
from repro.detector.pileup import generate_pileup_event

# ----------------------------------------------------------------------
# oracles: one particle, one surface, one hit at a time
# ----------------------------------------------------------------------


def _helix_position(p, t, field_tesla):
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    R = p.helix_radius_mm(field_tesla)
    q = float(p.charge)
    x = p.vx + (R / q) * (np.sin(p.phi0 + q * t) - np.sin(p.phi0))
    y = p.vy - (R / q) * (np.cos(p.phi0 + q * t) - np.cos(p.phi0))
    z = p.vz + R * t * np.sinh(p.eta)
    return np.stack([x, y, z], axis=1)


def _barrel_crossing(p, layer, field_tesla) -> Optional[float]:
    R = p.helix_radius_mm(field_tesla)
    q = float(p.charge)
    cx = p.vx - (R / q) * np.sin(p.phi0)
    cy = p.vy + (R / q) * np.cos(p.phi0)
    d = np.hypot(cx, cy)
    r_L = layer.radius
    if r_L > d + R or r_L < np.abs(d - R):
        return None
    cos_alpha = (d * d + R * R - r_L * r_L) / (2.0 * d * R)
    cos_alpha = np.clip(cos_alpha, -1.0, 1.0)
    alpha = np.arccos(cos_alpha)
    phi_start = np.arctan2(p.vy - cy, p.vx - cx)
    phi_beam = np.arctan2(-cy, -cx)
    candidates = []
    for sign in (+1.0, -1.0):
        phi_cross = phi_beam + sign * alpha
        t = (q * (phi_cross - phi_start)) % (2.0 * np.pi)
        if t > 1e-12:
            candidates.append(t)
    if not candidates:
        return None
    t_min = min(candidates)
    if t_min > np.pi:
        return None
    z = p.vz + R * t_min * np.sinh(p.eta)
    if np.abs(z) > layer.half_length:
        return None
    return float(t_min)


def _disk_crossing(p, disk, field_tesla) -> Optional[float]:
    R = p.helix_radius_mm(field_tesla)
    slope = R * np.sinh(p.eta)
    if np.abs(slope) < 1e-12:
        return None
    t = (disk.z - p.vz) / slope
    if t <= 1e-12 or t > np.pi:
        return None
    pos = _helix_position(p, np.array([t]), field_tesla)[0]
    r = np.hypot(pos[0], pos[1])
    if not (disk.r_inner <= r <= disk.r_outer):
        return None
    return float(t)


def _hit(p, layer_id, pos, t):
    return TrueHit(p.particle_id, layer_id, float(pos[0]), float(pos[1]), float(pos[2]), t)


def _propagate(p, geometry, min_hits=3) -> List[TrueHit]:
    B = geometry.solenoid_field_tesla
    hits = []
    for surf, crossing in [(l, _barrel_crossing) for l in geometry.barrel] + [
        (d, _disk_crossing) for d in geometry.endcaps
    ]:
        t = crossing(p, surf, B)
        if t is not None:
            hits.append(_hit(p, surf.layer_id, _helix_position(p, np.array([t]), B)[0], t))
    hits.sort(key=lambda h: h.t)
    return hits if len(hits) >= min_hits else []


def _propagate_with_scattering(p, geometry, rng, radiation_length_fraction=0.02, min_hits=3):
    B = geometry.solenoid_field_tesla
    momentum = p.pt * np.cosh(p.eta)
    theta0 = 13.6e-3 / max(momentum, 1e-3) * np.sqrt(radiation_length_fraction)
    hits, state, t_accumulated = [], p, 0.0
    for layer in geometry.barrel:
        t = _barrel_crossing(state, layer, B)
        if t is None:
            break
        pos = _helix_position(state, np.array([t]), B)[0]
        t_accumulated += t
        hits.append(_hit(p, layer.layer_id, pos, t_accumulated))
        q = float(state.charge)
        phi_here = state.phi0 + q * t
        dphi = float(rng.normal(0.0, theta0))
        deta = float(rng.normal(0.0, theta0) * np.cosh(state.eta))
        state = Particle(
            state.particle_id, state.pt, phi_here + dphi, state.eta + deta, state.charge,
            float(pos[0]), float(pos[1]), float(pos[2]),
        )
    return hits if len(hits) >= min_hits else []


def _generate(sim: EventSimulator, rng: np.random.Generator, event_id: int = 0):
    """Per-hit generation: propagate, drop, smear one hit at a time."""
    particles = sim.gun.sample(int(rng.poisson(sim.particles_per_event)), rng)
    xs, ys, zs, layers, pids, orders = [], [], [], [], [], []
    for p in particles:
        if sim.multiple_scattering > 0.0:
            crossings = _propagate_with_scattering(
                p, sim.geometry, rng, sim.multiple_scattering, sim.min_hits
            )
        else:
            crossings = _propagate(p, sim.geometry, sim.min_hits)
        if not crossings:
            continue
        keep = rng.random(len(crossings)) < sim.hit_efficiency
        survivors = [h for h, k in zip(crossings, keep) if k]
        if len(survivors) < sim.min_hits:
            continue
        for rank, h in enumerate(survivors):
            r = np.hypot(h.x, h.y)
            phi = np.arctan2(h.y, h.x)
            phi += rng.normal(0.0, sim.sigma_rphi) / r if r > 0 else 0.0
            z = h.z + rng.normal(0.0, sim.sigma_z)
            xs.append(float(r * np.cos(phi)))
            ys.append(float(r * np.sin(phi)))
            zs.append(float(z))
            layers.append(h.layer_id)
            pids.append(h.particle_id)
            orders.append(rank)
    for _ in range(int(round(sim.noise_fraction * len(xs)))):
        surfaces = list(sim.geometry.barrel) + list(sim.geometry.endcaps)
        surf = surfaces[int(rng.integers(len(surfaces)))]
        phi = rng.uniform(-np.pi, np.pi)
        if hasattr(surf, "radius"):
            z = rng.uniform(-surf.half_length, surf.half_length)
            r = surf.radius
        else:
            r = np.sqrt(rng.uniform(surf.r_inner ** 2, surf.r_outer ** 2))
            z = surf.z
        xs.append(float(r * np.cos(phi)))
        ys.append(float(r * np.sin(phi)))
        zs.append(float(z))
        layers.append(surf.layer_id)
        pids.append(0)
        orders.append(-1)
    positions = np.array([xs, ys, zs], dtype=np.float64).T.reshape(-1, 3)
    perm = rng.permutation(positions.shape[0])
    return dict(
        positions=positions[perm],
        layer_ids=np.asarray(layers, dtype=np.int64)[perm],
        particle_ids=np.asarray(pids, dtype=np.int64)[perm],
        hit_order=np.asarray(orders, dtype=np.int64)[perm],
        particles=particles,
        event_id=event_id,
    )


def _window_pairs(phi, z, idx_a, idx_b, dphi_max, dz_max):
    """Per-source-hit window cut, trees rebuilt for every layer pair."""
    if idx_a.size == 0 or idx_b.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    chord = 2.0 * np.sin(min(dphi_max, np.pi) / 2.0)
    s = chord / dz_max
    pts_a = np.stack([np.cos(phi[idx_a]), np.sin(phi[idx_a]), z[idx_a] * s], axis=1)
    pts_b = np.stack([np.cos(phi[idx_b]), np.sin(phi[idx_b]), z[idx_b] * s], axis=1)
    neighbors = cKDTree(pts_a).query_ball_tree(cKDTree(pts_b), r=np.sqrt(2.0) * chord)
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


def _edge_index(event, config):
    _, phi, z = event.cylindrical()
    layers = event.layer_ids
    by_layer = {int(l): np.flatnonzero(layers == l) for l in np.unique(layers)}
    srcs, dsts = [], []
    for la in np.unique(layers):
        for skip in range(1, config.max_layer_skip + 1):
            lb = int(la) + skip
            if lb in by_layer:
                s, d = _window_pairs(
                    phi, z, by_layer[int(la)], by_layer[lb], config.dphi_max, config.dz_max
                )
                srcs.append(s)
                dsts.append(d)
    if not srcs:
        return np.zeros((2, 0), dtype=np.int64)
    return np.stack([np.concatenate(srcs), np.concatenate(dsts)])


# ----------------------------------------------------------------------
# recipes
# ----------------------------------------------------------------------
BARREL = DetectorGeometry.barrel_only()
ENDCAPS = DetectorGeometry.with_endcaps()

RECIPES = {
    "barrel": dict(geometry=BARREL, particles_per_event=40),
    "endcaps": dict(geometry=ENDCAPS, particles_per_event=40, gun=ParticleGun(eta_max=3.0)),
    "curlers_noisy": dict(
        geometry=BARREL, particles_per_event=40, gun=ParticleGun(pt_min=0.1), noise_fraction=0.2
    ),
    "no_noise": dict(geometry=BARREL, particles_per_event=30, noise_fraction=0.0),
    "full_efficiency": dict(geometry=ENDCAPS, particles_per_event=30, hit_efficiency=1.0),
    "zero_particles": dict(geometry=BARREL, particles_per_event=0),
    "one_particle": dict(geometry=ENDCAPS, particles_per_event=1, noise_fraction=0.2),
    "scattering": dict(
        geometry=BARREL, particles_per_event=25, gun=ParticleGun(pt_min=0.3),
        multiple_scattering=0.05,
    ),
    "loose_min_hits": dict(geometry=ENDCAPS, particles_per_event=30, min_hits=1),
}

BUILDERS = [
    GeometricBuilderConfig(dphi_max=0.05, dz_max=60.0, max_layer_skip=1),
    GeometricBuilderConfig(dphi_max=0.30, dz_max=600.0, max_layer_skip=3),
    GeometricBuilderConfig(dphi_max=4.0, dz_max=2000.0, max_layer_skip=2),
]

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_same_event(event, ref):
    assert np.array_equal(event.positions, ref["positions"])
    assert event.positions.tobytes() == ref["positions"].tobytes()
    assert event.positions.dtype == ref["positions"].dtype
    assert event.positions.flags["C_CONTIGUOUS"] == ref["positions"].flags["C_CONTIGUOUS"]
    for name in ("layer_ids", "particle_ids", "hit_order"):
        got, want = getattr(event, name), ref[name]
        assert got.dtype == want.dtype == np.int64, name
        assert np.array_equal(got, want), name
    assert event.particles == ref["particles"]
    assert event.event_id == ref["event_id"]


@pytest.mark.parametrize("recipe", sorted(RECIPES))
@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_generate_matches_per_hit_oracle(recipe, seed):
    sim = EventSimulator(**RECIPES[recipe])
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    event = sim.generate(rng_new, event_id=seed % 97)
    assert_same_event(event, _generate(sim, rng_ref, event_id=seed % 97))
    # the same words were drawn: the generators end in the same state
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_hit_on_the_beam_line_draws_no_rphi_smear(monkeypatch):
    """A crossing at r == 0 gets a z draw and no r-φ draw, in both
    formulations (the gun never produces one, so it is planted)."""
    planted = [
        (0.0, 0.0, 5.0, 0.1),
        (30.0, 4.0, 9.0, 0.2),
        (-0.0, 0.0, 12.0, 0.3),
        (70.0, -1.0, 20.0, 0.4),
    ]

    def oracle_propagate(p, geometry, min_hits=3):
        return [TrueHit(p.particle_id, i, *hit) for i, hit in enumerate(planted)]

    def batched_crossings(particles, geometry, min_hits):
        n, k = len(particles), len(planted)
        return np.full(n, k), np.tile(np.arange(k), n), np.tile(np.array(planted).T, n)

    monkeypatch.setattr(sys.modules[__name__], "_propagate", oracle_propagate)
    monkeypatch.setattr(events_module, "_crossings", batched_crossings)
    sim = EventSimulator(BARREL, particles_per_event=20, hit_efficiency=0.9)
    for seed in range(5):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        event = sim.generate(rng_new)
        assert_same_event(event, _generate(sim, rng_ref))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        on_axis = (event.positions[:, 0] == 0) & (event.positions[:, 1] == 0)
        assert on_axis.any()


@given(seed=seeds, collisions=st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_pileup_event_matches_per_hit_oracle(seed, collisions):
    sim = EventSimulator(BARREL, particles_per_event=15, noise_fraction=0.1)
    event = generate_pileup_event(sim, collisions, np.random.default_rng(seed))

    class Oracle:
        def generate(self, rng, event_id=0):
            from repro.detector import Event

            return Event(**_generate(sim, rng, event_id))

    ref = generate_pileup_event(Oracle(), collisions, np.random.default_rng(seed))
    assert_same_event(event, vars(ref))


@pytest.mark.parametrize("geometry", [BARREL, ENDCAPS], ids=["barrel", "endcaps"])
@given(seed=seeds, min_hits=st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_propagate_matches_per_surface_oracle(geometry, seed, min_hits):
    gun = ParticleGun(pt_min=0.1, pt_max=20.0, eta_max=3.0, vertex_sigma_xy=1.0)
    for p in gun.sample(20, np.random.default_rng(seed)):
        assert propagate(p, geometry, min_hits) == _propagate(p, geometry, min_hits)


@given(seed=seeds, material=st.sampled_from([0.0, 0.02, 0.1]))
@settings(max_examples=25, deadline=None)
def test_propagate_with_scattering_matches_oracle(seed, material):
    gun = ParticleGun(pt_min=0.2)
    for i, p in enumerate(gun.sample(10, np.random.default_rng(seed))):
        rng_new, rng_ref = np.random.default_rng([seed, i]), np.random.default_rng([seed, i])
        got = propagate_with_scattering(p, BARREL, rng_new, material)
        assert got == _propagate_with_scattering(p, BARREL, rng_ref, material)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("recipe", ["barrel", "endcaps", "curlers_noisy", "one_particle"])
@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_candidate_edges_match_per_source_oracle(recipe, seed):
    sim = EventSimulator(**RECIPES[recipe])
    event = sim.generate(np.random.default_rng(seed))
    for config in BUILDERS:
        got = build_candidate_graph(event, sim.geometry, config).edge_index
        want = _edge_index(event, config)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
