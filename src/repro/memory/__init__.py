"""Memory modelling and management.

Two unrelated-but-cohabiting concerns:

* :mod:`repro.memory.activation` — the GPU activation-memory *model*
  driving full-graph skip decisions (paper Section 4);
* :mod:`repro.memory.arena` — a buffer-pool arena that no library code
  allocates through; kept for the ledger's ``memory.arena_*`` rows.
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
