"""Event simulation: from particle gun to digitised hit collections.

An :class:`Event` is the simulated analogue of one LHC bunch crossing's
detector readout — the unit the Exa.TrkX pipeline builds one graph from.
Generation applies, in order: helix propagation (ideal crossings),
detector inefficiency (random hit loss), position smearing (measurement
resolution), and noise hits (fake clusters uniform over the surfaces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import DetectorGeometry
from .particles import Particle, ParticleGun
from .propagation import _crossings, propagate_with_scattering

__all__ = ["Event", "EventSimulator"]


@dataclass
class Event:
    """Digitised hits of one simulated collision.

    Hit arrays are parallel; hit order is arbitrary.

    Attributes
    ----------
    positions:
        ``(n, 3)`` smeared (x, y, z) [mm].
    layer_ids:
        ``(n,)`` surface identifier per hit.
    particle_ids:
        ``(n,)`` truth particle per hit; 0 for noise hits.
    hit_order:
        ``(n,)`` index of the hit along its particle's trajectory
        (turning-angle rank); -1 for noise.  Consecutive ranks of the same
        particle define the truth track segments.
    particles:
        The generated particle records (including ones that left no
        reconstructable hits).
    event_id:
        Identifier within the dataset.
    """

    positions: np.ndarray
    layer_ids: np.ndarray
    particle_ids: np.ndarray
    hit_order: np.ndarray
    particles: List[Particle]
    event_id: int = 0

    @property
    def num_hits(self) -> int:
        return self.positions.shape[0]

    def cylindrical(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (r, phi, z) per hit."""
        x, y, z = self.positions.T
        return np.hypot(x, y), np.arctan2(y, x), z

    def true_segments(self) -> np.ndarray:
        """``(2, s)`` hit-index pairs of consecutive same-particle hits.

        These are the ground-truth track segments: an edge of a candidate
        graph is labelled 1 iff it coincides with one of these pairs (in
        either direction).
        """
        pid = self.particle_ids
        order = self.hit_order
        keep = pid > 0
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            return np.zeros((2, 0), dtype=np.int64)
        # sort hits by (particle, order along track)
        sorter = np.lexsort((order[idx], pid[idx]))
        sorted_idx = idx[sorter]
        same_particle = pid[sorted_idx][1:] == pid[sorted_idx][:-1]
        src = sorted_idx[:-1][same_particle]
        dst = sorted_idx[1:][same_particle]
        return np.stack([src, dst]).astype(np.int64)

    def num_reconstructable(self, min_hits: int = 3) -> int:
        """Number of particles leaving at least ``min_hits`` hits."""
        pid = self.particle_ids[self.particle_ids > 0]
        if pid.size == 0:
            return 0
        counts = np.bincount(pid)
        return int(np.sum(counts >= min_hits))


class EventSimulator:
    """Generates :class:`Event` objects.

    Parameters
    ----------
    geometry:
        Detector description.
    gun:
        Particle-kinematics sampler.
    particles_per_event:
        Mean particle multiplicity (Poisson-fluctuated).
    hit_efficiency:
        Probability a true crossing is actually recorded.
    sigma_rphi, sigma_z:
        Gaussian measurement resolution [mm] tangentially and along z.
    noise_fraction:
        Noise hits as a fraction of true hits.
    min_hits:
        Particles with fewer crossings are dropped from the truth (their
        hits are not produced), matching the paper's reconstructable-track
        selection.
    multiple_scattering:
        Material per layer in radiation lengths (x/X₀).  Zero (default)
        propagates exact helices; a few percent applies Highland-width
        Coulomb scattering at every crossing, kinking low-momentum tracks.
    """

    def __init__(
        self,
        geometry: DetectorGeometry,
        gun: Optional[ParticleGun] = None,
        particles_per_event: int = 50,
        hit_efficiency: float = 0.98,
        sigma_rphi: float = 0.5,
        sigma_z: float = 1.0,
        noise_fraction: float = 0.05,
        min_hits: int = 3,
        multiple_scattering: float = 0.0,
    ) -> None:
        if not 0.0 < hit_efficiency <= 1.0:
            raise ValueError("hit_efficiency must be in (0, 1]")
        if noise_fraction < 0:
            raise ValueError("noise_fraction must be non-negative")
        if multiple_scattering < 0:
            raise ValueError("multiple_scattering must be non-negative")
        self.geometry = geometry
        self.gun = gun if gun is not None else ParticleGun()
        self.particles_per_event = particles_per_event
        self.hit_efficiency = hit_efficiency
        self.sigma_rphi = sigma_rphi
        self.sigma_z = sigma_z
        self.noise_fraction = noise_fraction
        self.min_hits = min_hits
        self.multiple_scattering = multiple_scattering

    # ------------------------------------------------------------------
    def generate(self, rng: np.random.Generator, event_id: int = 0) -> Event:
        """Generate one event.

        The draws from ``rng``, in order: the multiplicity, the gun; per
        particle its scattering angles (if any), one ``random`` over its
        crossings (inefficiency) and one ``normal`` over its survivors'
        (r-φ, z) smears, hit by hit; one ``integers → uniform → uniform``
        per noise hit; the final shuffle.
        """
        n_particles = int(rng.poisson(self.particles_per_event))
        particles = self.gun.sample(n_particles, rng)

        if self.multiple_scattering > 0.0:
            # lazy, so a particle's scattering draws come right before its own
            tracks = (self._scattered(p, rng) for p in particles)
        else:
            counts, layer_ids, hits = _crossings(particles, self.geometry, self.min_hits)
            ends = np.cumsum(counts)
            tracks = ((hits[:3, e - c : e], layer_ids[e - c : e]) for c, e in zip(counts, ends))

        xyz, layers, pids, orders = [np.zeros((3, 0))], [], [], []
        drawn, draws = [np.zeros((0, 2), dtype=bool)], [np.zeros(0)]
        sigmas = np.tile((self.sigma_rphi, self.sigma_z), (self.geometry.num_layers, 1))
        for p, (h, lid) in zip(particles, tracks):
            if not lid.size:
                continue
            # inefficiency: drop crossings at random, then re-check min_hits
            keep = np.flatnonzero(rng.random(lid.size) < self.hit_efficiency)
            if keep.size < self.min_hits:
                continue
            h = h[:, keep]
            # one r-φ draw per hit off the beam line, one z draw per hit
            mask = np.ones((keep.size, 2), dtype=bool)
            mask[:, 0] = np.hypot(h[0], h[1]) > 0
            draws.append(rng.normal(0.0, sigmas[: keep.size][mask]))
            drawn.append(mask)
            xyz.append(h)
            layers.append(lid[keep])
            pids.append(np.full(keep.size, p.particle_id, dtype=np.int64))
            orders.append(np.arange(keep.size, dtype=np.int64))

        # measurement resolution, tangentially (r-φ) and in z
        x, y, z = np.concatenate(xyz, axis=1)
        drawn = np.concatenate(drawn)
        eps = np.zeros(drawn.shape)
        eps[drawn] = np.concatenate(draws)
        r = np.hypot(x, y)
        phi = np.arctan2(y, x) + np.divide(eps[:, 0], r, out=np.zeros_like(r), where=drawn[:, 0])

        n_noise = int(round(self.noise_fraction * x.size))
        surfaces = self.geometry.surfaces
        noise = np.array(
            [_noise_hit(surfaces, rng) for _ in range(n_noise)], dtype=np.float64
        ).reshape(-1, 4)

        positions = np.concatenate(
            [np.stack([r * np.cos(phi), r * np.sin(phi), z + eps[:, 1]]), noise[:, :3].T], axis=1
        ).T
        layer_ids = np.concatenate([*layers, noise[:, 3].astype(np.int64)])
        particle_ids = np.concatenate([*pids, np.zeros(n_noise, dtype=np.int64)])
        hit_order = np.concatenate([*orders, np.full(n_noise, -1, dtype=np.int64)])
        # shuffle hit order so nothing downstream can rely on generation order
        perm = rng.permutation(positions.shape[0])
        return Event(
            positions=positions[perm],
            layer_ids=layer_ids[perm],
            particle_ids=particle_ids[perm],
            hit_order=hit_order[perm],
            particles=particles,
            event_id=event_id,
        )

    # ------------------------------------------------------------------
    def _scattered(self, p: Particle, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """``(3, k)`` positions and ``(k,)`` layer ids of one scattered track."""
        hits = propagate_with_scattering(
            p,
            self.geometry,
            rng,
            radiation_length_fraction=self.multiple_scattering,
            min_hits=self.min_hits,
        )
        xyz = np.array([(h.x, h.y, h.z) for h in hits], dtype=np.float64).reshape(-1, 3)
        return xyz.T, np.array([h.layer_id for h in hits], dtype=np.int64)


def _noise_hit(surfaces: Sequence, rng: np.random.Generator) -> Tuple[float, float, float, int]:
    """Uniform fake hit on a random one of ``surfaces``: one ``integers``
    draw, then two ``uniform`` draws (the simulator's and the scenario
    mutators' noise, one draw order)."""
    surf = surfaces[int(rng.integers(len(surfaces)))]
    if hasattr(surf, "radius"):  # barrel layer
        phi = rng.uniform(-np.pi, np.pi)
        z = rng.uniform(-surf.half_length, surf.half_length)
        return (
            float(surf.radius * np.cos(phi)),
            float(surf.radius * np.sin(phi)),
            float(z),
            surf.layer_id,
        )
    # endcap disk: uniform in area over the annulus
    phi = rng.uniform(-np.pi, np.pi)
    r = np.sqrt(rng.uniform(surf.r_inner ** 2, surf.r_outer ** 2))
    return float(r * np.cos(phi)), float(r * np.sin(phi)), float(surf.z), surf.layer_id
