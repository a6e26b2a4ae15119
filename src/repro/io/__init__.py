"""Dataset IO: npz serialisation and atomic, checksummed archives."""

from .serialization import (
    CheckpointCorruptError,
    CheckpointError,
    archive_digest,
    atomic_savez,
    atomic_write_bytes,
    clean_stale_tmp,
    load_graphs,
    open_archive,
    save_graphs,
)

__all__ = [
    "CheckpointError",
    "CheckpointCorruptError",
    "archive_digest",
    "atomic_savez",
    "atomic_write_bytes",
    "open_archive",
    "clean_stale_tmp",
    "save_graphs",
    "load_graphs",
]
