"""Helix propagation through the detector.

A charged particle in a uniform solenoid field follows a helix: a circle of
radius ``R = pT / (0.3 B)`` in the transverse plane, advancing linearly in
``z`` with slope ``sinh(eta)`` per unit of transverse path length.  This
module intersects that helix with the detector surfaces to produce ideal
(pre-smearing) hit positions.

Parametrisation (turning angle ``t >= 0``)::

    x(t) = vx + (R/q) * (sin(phi0 + q t) - sin(phi0))
    y(t) = vy - (R/q) * (cos(phi0 + q t) - cos(phi0))
    z(t) = vz + R * t * sinh(eta)

with ``q = ±1`` the charge sign.  The transverse trajectory is a circle of
radius ``R`` centred at ``(vx - (R/q) sin phi0, vy + (R/q) cos phi0)``.

Every crossing is solved by one batched solver, :func:`_turning_angles`,
over a ``(particles, surfaces)`` grid; :func:`propagate` is its
one-particle view and :func:`propagate_with_scattering` calls it once per
layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .geometry import BarrelLayer, DetectorGeometry, EndcapDisk
from .particles import MM_PER_GEV_PER_TESLA, Particle

__all__ = ["TrueHit", "propagate", "propagate_with_scattering", "helix_position"]

# Cap on the swept turning angle: half a turn.  Low-pT particles curl back
# toward the beam line after t = pi and would re-cross inner layers; real
# pattern recognition treats those as separate track segments, and the
# Exa.TrkX truth definition keeps only the outward-going arc.
MAX_TURNING_ANGLE = np.pi

# Helix parameters as columns: (R, q, phi0, eta, vx, vy, vz).
Kinematics = Tuple[np.ndarray, ...]


@dataclass(frozen=True)
class TrueHit:
    """Ideal intersection of a particle helix with a detector surface."""

    particle_id: int
    layer_id: int
    x: float
    y: float
    z: float
    t: float  # turning angle at the intersection (orders hits along the track)


def _kinematics(particles: Sequence[Particle], field_tesla: float) -> Kinematics:
    """Column arrays ``(R, q, phi0, eta, vx, vy, vz)`` of ``particles``."""
    cols = np.array(
        [(p.pt, p.charge, p.phi0, p.eta, p.vx, p.vy, p.vz) for p in particles], dtype=np.float64
    ).reshape(-1, 7)
    pt, *rest = np.ascontiguousarray(cols.T)
    return (pt * MM_PER_GEV_PER_TESLA / field_tesla, *rest)


def _helix(k: Kinematics, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, z) of the helices ``k`` at turning angles ``t`` (broadcast)."""
    R, q, phi0, eta, vx, vy, vz = k
    x = vx + (R / q) * (np.sin(phi0 + q * t) - np.sin(phi0))
    y = vy - (R / q) * (np.cos(phi0 + q * t) - np.cos(phi0))
    z = vz + R * t * np.sinh(eta)
    return x, y, z


def helix_position(p: Particle, t: np.ndarray, field_tesla: float) -> np.ndarray:
    """Evaluate the helix of particle ``p`` at turning angles ``t``.

    Returns an ``(len(t), 3)`` array of (x, y, z) positions [mm].
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    k = (p.helix_radius_mm(field_tesla), float(p.charge), p.phi0, p.eta, p.vx, p.vy, p.vz)
    return np.stack(_helix(k, t), axis=1)


def _turning_angles(
    k: Kinematics, barrel: Sequence[BarrelLayer], endcaps: Sequence[EndcapDisk]
) -> np.ndarray:
    """``(P, len(barrel) + len(endcaps))`` turning angle at which each helix
    first crosses each surface; NaN where it does not within the cap.

    Barrel: with helix centre ``C`` at distance ``d`` from the origin and
    radius ``R``, the helix reaches radius ``r_L`` iff
    ``|d - R| <= r_L <= d + R``; the crossing azimuth around ``C`` follows
    from the law of cosines, and of the two crossings the first reached
    (smallest ``t > 0``) counts if inside the cylinder's half-length.
    Disk: the helix meets the plane at ``t = (z_D - vz) / (R sinh eta)``,
    counted if inside the annulus.
    """
    k = tuple(c[:, None] for c in k)
    R, q, phi0, eta, vx, vy, vz = k
    r_L = np.array([l.radius for l in barrel], dtype=np.float64)
    half = np.array([l.half_length for l in barrel], dtype=np.float64)
    z_D = np.array([d.z for d in endcaps], dtype=np.float64)
    r_in = np.array([d.r_inner for d in endcaps], dtype=np.float64)
    r_out = np.array([d.r_outer for d in endcaps], dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = vx - (R / q) * np.sin(phi0)
        cy = vy + (R / q) * np.cos(phi0)
        d = np.hypot(cx, cy)
        cos_alpha = np.clip((d * d + R * R - r_L * r_L) / (2.0 * d * R), -1.0, 1.0)
        alpha = np.arccos(cos_alpha)
        phi_start = np.arctan2(vy - cy, vx - cx)
        phi_beam = np.arctan2(-cy, -cx)
        # On the helix, the azimuth around the centre is phi_start + q*t:
        # solve phi_start + q t ≡ phi_beam ± alpha (mod 2π) for t > 0.
        first = [
            (q * (phi_beam + sign * alpha - phi_start)) % (2.0 * np.pi) for sign in (+1.0, -1.0)
        ]
        t_b = np.fmin(*(np.where(t > 1e-12, t, np.nan) for t in first))
        _, _, z = _helix(k, t_b)
        barrel_ok = (
            ~((r_L > d + R) | (r_L < np.abs(d - R)))
            & ~(t_b > MAX_TURNING_ANGLE)
            & ~(np.abs(z) > half)
        )
        slope = R * np.sinh(eta)
        t_d = (z_D - vz) / slope
        x, y, _ = _helix(k, t_d)
        r = np.hypot(x, y)
        disk_ok = (
            ~(np.abs(slope) < 1e-12)
            & ~((t_d <= 1e-12) | (t_d > MAX_TURNING_ANGLE))
            & (r_in <= r)
            & (r <= r_out)
        )
    return np.concatenate(
        [np.where(barrel_ok, t_b, np.nan), np.where(disk_ok, t_d, np.nan)], axis=1
    )


def _crossings(
    particles: Sequence[Particle], geometry: DetectorGeometry, min_hits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every crossing of every particle in one pass.

    Returns ``(counts, layer_ids, hits)``: ``counts[i]`` crossings of
    particle ``i`` (0 when fewer than ``min_hits``), then their layer ids
    and ``(4, n)`` rows ``x, y, z, t``, grouped by particle and ordered by
    turning angle within a particle (barrel before disks on ties).
    """
    surfaces = geometry.surfaces
    k = _kinematics(particles, geometry.solenoid_field_tesla)
    t = _turning_angles(k, geometry.barrel, geometry.endcaps)
    counts = np.count_nonzero(~np.isnan(t), axis=1)
    counts[counts < min_hits] = 0
    order = np.argsort(t, axis=1, kind="stable")  # NaN last
    rows, ranks = np.nonzero(np.arange(len(surfaces)) < counts[:, None])
    cols = order[rows, ranks]
    t_hit = t[rows, cols]
    x, y, z = _helix(tuple(c[rows] for c in k), t_hit)
    layer_ids = np.array([s.layer_id for s in surfaces], dtype=np.int64)[cols]
    return counts, layer_ids, np.stack([x, y, z, t_hit])


def propagate_with_scattering(
    p: Particle,
    geometry: DetectorGeometry,
    rng: np.random.Generator,
    radiation_length_fraction: float = 0.02,
    min_hits: int = 3,
) -> List[TrueHit]:
    """Propagate through the barrel with multiple Coulomb scattering.

    Each silicon layer deflects the track by a Gaussian angle with the
    Highland width ``θ₀ ≈ (13.6 MeV / p) · sqrt(x/X₀)``; the trajectory
    between layers stays an exact helix.  Implemented as a sequence of
    single-layer propagations, re-seeding the helix at every crossing with
    the perturbed direction.

    Parameters
    ----------
    p:
        The generated particle.
    rng:
        Source of the scattering angles.
    radiation_length_fraction:
        Material per layer in units of X₀ (a few % for a silicon layer
        plus services).
    min_hits:
        As :func:`propagate`.
    """
    if radiation_length_fraction < 0:
        raise ValueError("radiation_length_fraction must be non-negative")
    B = geometry.solenoid_field_tesla
    momentum = p.pt * np.cosh(p.eta)  # |p| in GeV
    theta0 = 13.6e-3 / max(momentum, 1e-3) * np.sqrt(radiation_length_fraction)

    hits: List[TrueHit] = []
    state = p
    t_accumulated = 0.0
    for layer in geometry.barrel:
        k = _kinematics([state], B)
        t = _turning_angles(k, (layer,), ())
        if np.isnan(t[0, 0]):
            break  # curler or deflected out of reach; outer layers unreachable
        x, y, z = (float(c[0, 0]) for c in _helix(k, t))
        t = float(t[0, 0])
        t_accumulated += t
        hits.append(TrueHit(p.particle_id, layer.layer_id, x, y, z, t_accumulated))
        # direction at the crossing: tangent of the current helix
        q = float(state.charge)
        phi_here = state.phi0 + q * t
        # scatter: perturb azimuthal direction and dip angle
        dphi = float(rng.normal(0.0, theta0))
        deta = float(rng.normal(0.0, theta0) * np.cosh(state.eta))
        state = Particle(
            particle_id=state.particle_id,
            pt=state.pt,
            phi0=phi_here + dphi,
            eta=state.eta + deta,
            charge=state.charge,
            vx=x,
            vy=y,
            vz=z,
        )
    if len(hits) < min_hits:
        return []
    return hits


def propagate(
    p: Particle, geometry: DetectorGeometry, min_hits: int = 3
) -> List[TrueHit]:
    """Intersect particle ``p`` with every detector surface.

    Returns hits ordered by turning angle (i.e. along the trajectory).
    Particles leaving fewer than ``min_hits`` crossings return an empty
    list — they cannot form a reconstructable track and match the paper's
    truth selection (which requires a minimum number of hits).
    """
    _, layer_ids, hits = _crossings([p], geometry, min_hits)
    return [
        TrueHit(p.particle_id, int(lid), float(x), float(y), float(z), float(t))
        for lid, (x, y, z, t) in zip(layer_ids, hits.T)
    ]
