"""Archive layer: atomic, checksummed ``.npz`` (de)serialisation.

Two concerns live here:

* **Event-graph round-trips** — each archive packs every graph's arrays
  under ``g{i}_{field}`` keys plus a ``count`` scalar; graphs round-trip
  exactly (dtype- and value-identical), which the property tests verify.
* **Durability primitives** shared by every checkpoint writer in the
  code base (:mod:`repro.pipeline.persistence`,
  :mod:`repro.pipeline.checkpoint`): :func:`atomic_savez` writes through
  a temp file + ``os.replace`` so a crash mid-write can never leave a
  truncated archive under the target name, and embeds a SHA-256 content
  checksum; :func:`open_archive` verifies that checksum and converts the
  zoo of low-level failure modes (``zipfile.BadZipFile``, zlib errors,
  truncated headers) into one typed :class:`CheckpointError` naming the
  offending path.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
import tempfile
import zipfile
import zlib
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..graph import EventGraph

__all__ = [
    "CheckpointError",
    "CheckpointCorruptError",
    "CHECKSUM_KEY",
    "archive_digest",
    "atomic_savez",
    "atomic_write_bytes",
    "open_archive",
    "pack_prefixed",
    "unpack_prefixed",
    "clean_stale_tmp",
    "save_graphs",
    "load_graphs",
]

CHECKSUM_KEY = "__checksum__"
_TMP_SUFFIX = ".tmp.npz"


class CheckpointError(RuntimeError):
    """A checkpoint archive is missing, corrupt, or inconsistent."""


class CheckpointCorruptError(CheckpointError):
    """The archive's *bytes* are damaged (bad zip, checksum mismatch).

    Distinct from the plain :class:`CheckpointError` (missing file,
    wrong kind/version, config mismatch) so resume logic can fall back
    to an older checkpoint on media corruption without masking
    configuration mistakes.
    """


def archive_digest(payload: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over the archive content (sorted keys; dtype/shape/bytes).

    The :data:`CHECKSUM_KEY` entry itself is excluded so the digest can be
    recomputed from a loaded archive and compared against the stored one.
    """
    h = hashlib.sha256()
    for key in sorted(payload):
        if key == CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(payload[key])
        h.update(key.encode("utf-8"))
        h.update(arr.dtype.str.encode("ascii"))
        h.update(repr(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def atomic_savez(path: str, payload: Dict[str, np.ndarray], checksum: bool = True) -> None:
    """Write ``payload`` to ``path`` as a compressed npz, atomically.

    The archive is first written to a temp file in the destination
    directory and then moved over ``path`` with ``os.replace`` — readers
    either see the complete old file or the complete new one, never a
    torn write.  When ``checksum`` is true a SHA-256 digest of the
    content is embedded under :data:`CHECKSUM_KEY` for
    :func:`open_archive` to verify.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if checksum:
        payload = dict(payload)
        payload[CHECKSUM_KEY] = np.frombuffer(
            archive_digest(payload).encode("ascii"), dtype=np.uint8
        )
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=_TMP_SUFFIX)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_bytes(path: str, data: bytes, tmp_suffix: str = ".tmp") -> None:
    """Write ``data`` to ``path`` through a temp file + ``os.replace``.

    The raw-bytes sibling of :func:`atomic_savez`, shared by every
    non-npz durable writer (the event-store shard/manifest files):
    readers either see the complete old file or the complete new one,
    never a torn write.  A crash strands only a ``*{tmp_suffix}`` file,
    which :func:`clean_stale_tmp` sweeps at the next writer startup.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=tmp_suffix)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def clean_stale_tmp(directory: str, suffixes: Tuple[str, ...] = (_TMP_SUFFIX,)) -> List[str]:
    """Remove temp files left by interrupted atomic writes.

    A crash between ``mkstemp`` and ``os.replace`` strands a temp file
    next to the target (``*.tmp.npz`` for :func:`atomic_savez`, ``*.tmp``
    for :func:`atomic_write_bytes`); they are never valid outputs and
    accumulate forever.  Call this once at writer startup — not
    concurrently with another live writer in the same directory, whose
    in-flight temp file would be swept away (its write fails cleanly,
    but the retry costs a write).

    Returns the paths removed (missing directory → nothing to do).
    """
    removed: List[str] = []
    if not os.path.isdir(directory):
        return removed
    for name in sorted(os.listdir(directory)):
        if not name.endswith(tuple(suffixes)):
            continue
        path = os.path.join(directory, name)
        try:
            os.unlink(path)
        except OSError:
            continue  # vanished or unremovable; not worth failing startup
        removed.append(path)
    return removed


def _audit_zip_members(buffer: io.BytesIO) -> None:
    """Cross-check each member's local header against the central directory.

    ``zipfile`` trusts the central directory alone for names, CRCs and
    sizes, so damage to a *local* file header — the redundant filename,
    CRC copy, or the zip64 size extra that ``savez``'s force-zip64
    streams emit — decompresses cleanly and escapes both the member
    CRC-32 and the content checksum.  The two copies were written from
    the same values; any disagreement means the bytes on disk are not
    the bytes that were written.  Raises ``ValueError`` on mismatch.
    """
    with zipfile.ZipFile(buffer) as zf:
        for info in zf.infolist():
            buffer.seek(info.header_offset)
            header = buffer.read(30)
            if len(header) < 30 or header[:4] != b"PK\x03\x04":
                raise ValueError(f"bad local header for {info.filename!r}")
            flags = struct.unpack("<H", header[6:8])[0]
            crc, csize, usize = struct.unpack("<III", header[14:26])
            nlen, elen = struct.unpack("<HH", header[26:30])
            name = buffer.read(nlen)
            extra = buffer.read(elen)
            if len(name) != nlen or len(extra) != elen:
                raise ValueError(f"truncated local header for {info.filename!r}")
            if name.decode("utf-8", "replace") != info.filename:
                raise ValueError(
                    f"local header name disagrees with directory: {name!r}"
                )
            zip64_vals: List[int] = []
            pos = 0
            while pos + 4 <= len(extra):
                tid, tlen = struct.unpack("<HH", extra[pos : pos + 4])
                body = extra[pos + 4 : pos + 4 + tlen]
                if len(body) != tlen:
                    raise ValueError(
                        f"malformed extra field for {info.filename!r}"
                    )
                if tid == 0x0001:  # zip64 extended information
                    zip64_vals = [
                        struct.unpack("<Q", body[i : i + 8])[0]
                        for i in range(0, len(body) - len(body) % 8, 8)
                    ]
                pos += 4 + tlen
            if pos != len(extra):
                raise ValueError(f"malformed extra field for {info.filename!r}")
            if flags & 0x0008:
                continue  # sizes/CRC live in a data descriptor, not here
            fields = iter(zip64_vals)
            if usize == 0xFFFFFFFF:
                usize = next(fields, -1)
            if csize == 0xFFFFFFFF:
                csize = next(fields, -1)
            if (
                crc != info.CRC
                or usize != info.file_size
                or csize != info.compress_size
            ):
                raise ValueError(
                    f"local header disagrees with directory for {info.filename!r}"
                )


def open_archive(path: str, verify: bool = True):
    """Open an npz archive, translating corruption into CheckpointError.

    Parameters
    ----------
    path:
        Archive written by :func:`atomic_savez` (or plain npz).
    verify:
        When true and the archive carries a :data:`CHECKSUM_KEY` entry,
        every array is read back and the SHA-256 digest recomputed; any
        mismatch (bit-flip, truncated member) raises
        :class:`CheckpointError`.

    Returns
    -------
    np.lib.npyio.NpzFile
        The open archive (caller closes it, e.g. via ``with``).
    """
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        # buffer the archive in memory: np.load leaks its file handle when
        # the zip structure is damaged, and checkpoints are small
        with open(path, "rb") as fh:
            buffer = io.BytesIO(fh.read())
        if verify:
            _audit_zip_members(buffer)
            buffer.seek(0)
        archive = np.load(buffer, allow_pickle=False)
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, ValueError) as exc:
        raise CheckpointCorruptError(
            f"corrupt or unreadable checkpoint {path!r}: {exc}"
        ) from exc
    if verify and CHECKSUM_KEY in archive.files:
        try:
            content = {key: archive[key] for key in archive.files}
        except (zipfile.BadZipFile, zlib.error, OSError, EOFError, ValueError, KeyError) as exc:
            archive.close()
            raise CheckpointCorruptError(
                f"corrupt or unreadable checkpoint {path!r}: {exc}"
            ) from exc
        stored = bytes(content.pop(CHECKSUM_KEY)).decode("ascii", errors="replace")
        actual = archive_digest(content)
        if stored != actual:
            archive.close()
            raise CheckpointCorruptError(
                f"checksum mismatch in checkpoint {path!r}: "
                f"stored {stored[:12]}…, recomputed {actual[:12]}… "
                "(the file is corrupt)"
            )
    return archive


def pack_prefixed(out: Dict[str, np.ndarray], prefix: str, state: Mapping[str, np.ndarray]) -> None:
    """Add ``state``'s arrays to the payload ``out`` as ``prefix/name``."""
    for name, arr in state.items():
        out[f"{prefix}/{name}"] = arr


def unpack_prefixed(archive, prefix: str) -> Dict[str, np.ndarray]:
    """The arrays :func:`pack_prefixed` stored under ``prefix``, by name."""
    head = prefix + "/"
    return {key[len(head):]: archive[key] for key in archive.files if key.startswith(head)}


_FIELDS = ("edge_index", "x", "y", "edge_labels", "particle_ids")


def save_graphs(graphs: List[EventGraph], path: str) -> None:
    """Write a list of graphs to ``path`` (one atomic compressed npz)."""
    payload = {"count": np.asarray(len(graphs), dtype=np.int64)}
    for i, g in enumerate(graphs):
        payload[f"g{i}_edge_index"] = g.edge_index
        payload[f"g{i}_x"] = g.x
        payload[f"g{i}_y"] = g.y
        payload[f"g{i}_event_id"] = np.asarray(g.event_id, dtype=np.int64)
        if g.edge_labels is not None:
            payload[f"g{i}_edge_labels"] = g.edge_labels
        if g.particle_ids is not None:
            payload[f"g{i}_particle_ids"] = g.particle_ids
    atomic_savez(path, payload)


def load_graphs(path: str) -> List[EventGraph]:
    """Load graphs written by :func:`save_graphs`."""
    with open_archive(path) as data:
        count = int(data["count"])
        graphs = []
        for i in range(count):
            graphs.append(
                EventGraph(
                    edge_index=data[f"g{i}_edge_index"],
                    x=data[f"g{i}_x"],
                    y=data[f"g{i}_y"],
                    edge_labels=data.get(f"g{i}_edge_labels"),
                    particle_ids=data.get(f"g{i}_particle_ids"),
                    event_id=int(data[f"g{i}_event_id"]),
                )
            )
    return graphs
