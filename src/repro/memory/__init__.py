"""Memory modelling and management.

Two unrelated-but-cohabiting concerns:

* :mod:`repro.memory.activation` — the GPU activation-memory *model*
  driving full-graph skip decisions (paper Section 4);
* :mod:`repro.memory.arena` — the real buffer-pool arena recycling the
  engine's per-step gradient and scratch buffers.
"""

from .activation import ActivationMemoryModel
from .arena import (
    ArenaStats,
    BufferArena,
    arena_enabled,
    default_arena,
    set_arena_enabled,
)

__all__ = [
    "ActivationMemoryModel",
    "ArenaStats",
    "BufferArena",
    "arena_enabled",
    "default_arena",
    "set_arena_enabled",
]
