"""Detector geometry: cylindrical barrel layers and endcap disks.

A simplified silicon tracker in the style of the TrackML / ITk detectors
the Exa.TrkX pipeline targets: concentric barrel cylinders around the beam
axis (z), optionally closed by endcap disks at fixed |z|.  All lengths are
in millimetres, matching HEP convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["BarrelLayer", "EndcapDisk", "DetectorGeometry"]


@dataclass(frozen=True)
class BarrelLayer:
    """A cylindrical detection surface at fixed radius.

    Parameters
    ----------
    radius:
        Cylinder radius [mm].
    half_length:
        Cylinder extends over ``|z| <= half_length`` [mm].
    layer_id:
        Unique layer identifier (used as a hit feature and for truth-edge
        ordering).
    """

    radius: float
    half_length: float
    layer_id: int

    def __post_init__(self) -> None:
        if self.radius <= 0 or self.half_length <= 0:
            raise ValueError("layer dimensions must be positive")


@dataclass(frozen=True)
class EndcapDisk:
    """A disk detection surface at fixed z.

    Parameters
    ----------
    z:
        Disk plane position [mm]; sign selects the side.
    r_inner, r_outer:
        Annulus bounds [mm].
    layer_id:
        Unique layer identifier, disjoint from barrel ids.
    """

    z: float
    r_inner: float
    r_outer: float
    layer_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.r_inner < self.r_outer:
            raise ValueError("need 0 <= r_inner < r_outer")


@dataclass(frozen=True)
class DetectorGeometry:
    """Full detector: ordered barrel layers plus optional endcap disks.

    The default factory methods build geometries loosely modelled on the
    TrackML pixel+short-strip barrel.
    """

    barrel: Tuple[BarrelLayer, ...]
    endcaps: Tuple[EndcapDisk, ...] = ()
    solenoid_field_tesla: float = 2.0

    def __post_init__(self) -> None:
        radii = [l.radius for l in self.barrel]
        if sorted(radii) != radii:
            raise ValueError("barrel layers must be ordered by increasing radius")
        ids = [s.layer_id for s in self.surfaces]
        if len(set(ids)) != len(ids):
            raise ValueError("layer ids must be unique")

    @property
    def surfaces(self) -> tuple:
        """Every sensitive surface: the barrel layers, then the endcap disks."""
        return tuple(self.barrel) + tuple(self.endcaps)

    @property
    def num_layers(self) -> int:
        return len(self.barrel) + len(self.endcaps)

    @property
    def barrel_radii(self) -> np.ndarray:
        return np.array([l.radius for l in self.barrel])

    @property
    def max_radius(self) -> float:
        return self.barrel[-1].radius if self.barrel else max(d.r_outer for d in self.endcaps)

    @staticmethod
    def barrel_only(
        radii: Sequence[float] = (32.0, 72.0, 116.0, 172.0, 260.0, 360.0, 500.0, 660.0, 820.0, 1020.0),
        half_length: float = 1100.0,
        field_tesla: float = 2.0,
    ) -> "DetectorGeometry":
        """TrackML-like 10-layer barrel (pixel + strip radii, mm)."""
        layers = tuple(
            BarrelLayer(radius=r, half_length=half_length, layer_id=i)
            for i, r in enumerate(radii)
        )
        return DetectorGeometry(barrel=layers, solenoid_field_tesla=field_tesla)

    @staticmethod
    def with_endcaps(
        radii: Sequence[float] = (32.0, 72.0, 116.0, 172.0, 260.0, 360.0),
        half_length: float = 700.0,
        disk_zs: Sequence[float] = (800.0, 950.0, 1100.0, -800.0, -950.0, -1100.0),
        field_tesla: float = 2.0,
    ) -> "DetectorGeometry":
        """Barrel plus three endcap disks per side."""
        barrel = tuple(
            BarrelLayer(radius=r, half_length=half_length, layer_id=i)
            for i, r in enumerate(radii)
        )
        disks = tuple(
            EndcapDisk(z=z, r_inner=30.0, r_outer=max(radii), layer_id=len(radii) + j)
            for j, z in enumerate(disk_zs)
        )
        return DetectorGeometry(barrel=barrel, endcaps=disks, solenoid_field_tesla=field_tesla)
