"""mmap-backed persistence for the identification engine.

A store that re-parses every record on load is fine for thousands of
users and hopeless for millions.  This module writes an engine's state
as a *directory* of flat binary files that ``np.memmap`` can open in
O(1):

``manifest.json``
    Small JSON header: format version, system parameters, shard count,
    per-shard row counts, total records.  Written last and atomically
    (temp file + ``os.replace``), so a crashed save never leaves a
    directory that parses as a valid store.
``shard-NNNN.sketches`` / ``shard-NNNN.rows``
    One pair per shard: the ``(count, n)`` int32 sketch matrix and the
    ``(count,)`` int64 global row ids, raw little-endian, row-major.
    Opened as read-only memmaps; the OS pages sketch data in on first
    touch, so opening a million-record store costs only the manifest
    parse.
``records.bin`` / ``records.idx``
    Length-prefixed record blobs (user id, verify key, helper data) plus
    a ``(N+1,)`` uint64 offset table.  Records are materialised lazily
    one at a time through :class:`LazyRecordFile`; nothing is parsed at
    open time.
``status.bin`` (format 2)
    One byte per row: the sketch-version lifecycle status
    (:mod:`repro.engine.lifecycle`), read fully at open (N bytes — the
    only per-record cost the open path pays) because the engine mutates
    it in memory.  Format-2 manifests additionally record the journal
    operation count at save time (``journal_seq``) and the engine's
    journal attachment mode (``journal``: true/false/null), so a
    reopened engine resumes both without being told.

A format-1 directory (saved before sketch lifecycle existed) opens
through a compatibility shim: every row reads as an active version and
``journal_seq`` defaults to the record count — exactly the semantics it
was saved with.  The next save writes format 2.

Everything stored is public helper data: integrity matters,
confidentiality does not.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro import faults
from repro.core.params import SystemParams
from repro.exceptions import ParameterError
from repro.ioutil import atomic_replace
from repro.protocols.database import UserRecord

FORMAT_VERSION = 2
#: Formats :func:`open_store` accepts; format 1 (pre-lifecycle) opens
#: through the all-rows-active compatibility shim.
SUPPORTED_FORMATS = (1, FORMAT_VERSION)
_MANIFEST = "manifest.json"
_RECORDS_BIN = "records.bin"
_RECORDS_IDX = "records.idx"
_STATUS_BIN = "status.bin"

_SKETCH_DTYPE = np.dtype("<i4")
_ROWID_DTYPE = np.dtype("<i8")
_OFFSET_DTYPE = np.dtype("<u8")


def _shard_names(index: int) -> tuple[str, str]:
    return f"shard-{index:04d}.sketches", f"shard-{index:04d}.rows"


def _encode_record(record: UserRecord) -> bytes:
    uid = record.user_id.encode("utf-8")
    return b"".join([
        len(uid).to_bytes(2, "little"), uid,
        len(record.verify_key).to_bytes(4, "little"), record.verify_key,
        len(record.helper_data).to_bytes(4, "little"), record.helper_data,
    ])


def _decode_record(blob: bytes) -> UserRecord:
    try:
        offset = 0
        uid_len = int.from_bytes(blob[offset: offset + 2], "little")
        offset += 2
        uid = blob[offset: offset + uid_len]
        if len(uid) != uid_len:
            raise ValueError("truncated user id")
        offset += uid_len
        vk_len = int.from_bytes(blob[offset: offset + 4], "little")
        offset += 4
        verify_key = blob[offset: offset + vk_len]
        if len(verify_key) != vk_len:
            raise ValueError("truncated verify key")
        offset += vk_len
        hd_len = int.from_bytes(blob[offset: offset + 4], "little")
        offset += 4
        helper_data = blob[offset: offset + hd_len]
        if len(helper_data) != hd_len or offset + hd_len != len(blob):
            raise ValueError("truncated or oversized record")
    except (IndexError, ValueError) as exc:
        raise ParameterError(f"malformed engine record: {exc}") from exc
    return UserRecord(user_id=uid.decode("utf-8"), verify_key=verify_key,
                      helper_data=helper_data)


class LazyRecordFile:
    """Random access to persisted records without parsing them at open.

    Holds the memmapped offset table and reads one record's byte range
    from ``records.bin`` on demand — the store's record count never
    influences open time.  Reads are positional (``os.pread``) on one
    shared descriptor, so concurrent lookups (the verify pool's) never
    read at each other's file offsets.
    """

    def __init__(self, path: Path, offsets: np.ndarray) -> None:
        self._path = path
        self._offsets = offsets
        self._fd: int | None = None
        self._fd_lock = threading.Lock()

    def __len__(self) -> int:
        return max(self._offsets.shape[0] - 1, 0)

    def _descriptor(self) -> int:
        with self._fd_lock:
            if self._fd is None:
                self._fd = os.open(self._path, os.O_RDONLY)
            return self._fd

    def __getitem__(self, row: int) -> UserRecord:
        if not 0 <= row < len(self):
            raise IndexError(f"record {row} out of range 0..{len(self) - 1}")
        start = int(self._offsets[row])
        stop = int(self._offsets[row + 1])
        blob = os.pread(self._descriptor(), stop - start, start)
        if len(blob) != stop - start:
            raise ParameterError(
                f"record {row}: records.bin truncated "
                f"(wanted {stop - start} bytes at {start})"
            )
        return _decode_record(blob)

    def __iter__(self) -> Iterator[UserRecord]:
        for row in range(len(self)):
            yield self[row]

    def close(self) -> None:
        """Release the file descriptor (reopened on next access)."""
        with self._fd_lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def release(self) -> None:
        """Terminal close: the file handle *and* the offset memmap.

        The offset table is swapped for an empty array before the memmap
        reference drops, so a read through a released file raises
        ``IndexError`` (the file reports zero records) instead of
        touching unmapped memory.
        """
        self.close()
        self._offsets = np.empty(0, dtype=_OFFSET_DTYPE)


@dataclass
class OpenedStore:
    """Everything :meth:`IdentificationEngine.open` needs, memmap-backed.

    Holds one ``np.memmap`` — one mapped region plus one duplicated file
    descriptor — per shard file, and one for the record offset table.
    A long-running process that opens stores repeatedly (``repro serve``
    restarts, engine swap-overs) must :meth:`close` each one or the
    mappings and fds accumulate: use the store as a context manager, or
    rely on :meth:`~repro.engine.engine.IdentificationEngine.close`,
    which closes the store it was opened from.

    Release is by reference dropping, never by unmapping under live
    arrays: a mapping is freed (and its fd closed) the moment the last
    array referencing it goes away, so a straggler view someone kept
    past :meth:`close` stays readable and keeps only its own shard
    alive — a bounded leak instead of a use-after-unmap crash.
    """

    params: SystemParams
    shard_parts: list[tuple[np.ndarray, np.ndarray]]
    records: LazyRecordFile
    total_records: int
    manifest: dict
    #: One lifecycle status byte per row (all zero — active — for
    #: format-1 stores opened through the compatibility shim).
    statuses: bytes = b""

    def close(self) -> None:
        """Drop every memmap reference and file handle this store holds.

        Idempotent.  After close the store reports no shards and no
        records; mappings whose only holder was this store are freed
        immediately (consumers like the identification engine drop
        their index references in the same motion — see
        ``IdentificationEngine.close``).
        """
        self.records.release()
        self.shard_parts.clear()
        self.total_records = 0

    def __enter__(self) -> "OpenedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _stage(path: Path, data: bytes,
           staged: list[tuple[str, Path]]) -> None:
    """Write ``data`` to a temp file next to ``path``; commit happens later."""
    handle = tempfile.NamedTemporaryFile(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
    )
    with handle:
        handle.write(data)
    staged.append((handle.name, path))


def write_store(path: str | Path, params: SystemParams,
                shard_parts: list[tuple[np.ndarray, np.ndarray]],
                records: Iterable[UserRecord],
                statuses: bytes | None = None,
                journal_seq: int | None = None,
                journal_mode: bool | None = None) -> None:
    """Persist shards + records as an engine store directory.

    ``shard_parts`` is the per-shard ``(matrix, row_ids)`` list (see
    :meth:`ShardedSketchIndex.shard_parts`); ``records`` is iterated once
    in global row order.  ``statuses`` is one lifecycle status byte per
    record (all active when omitted); ``journal_seq`` is the journal
    operation count at save time (defaults to the record count — correct
    for engines that never saw a lifecycle op); ``journal_mode`` records
    the engine's journal attachment tri-state for reopen.

    The save is two-phase.  *Stage*: every data file is fully serialised
    to temp files first, so any failure there (disk full, a record that
    will not encode) leaves an existing store byte-for-byte untouched.
    *Commit*: the old manifest is removed, staged files are renamed into
    place, stale shard files from a previous wider layout are swept, and
    the new manifest lands last and atomically — a crash inside the
    commit window leaves a directory with no manifest, which
    :func:`open_store` cleanly rejects rather than mis-reading a stale
    manifest over half-replaced data files.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    # Crash-matrix injection point: nothing staged yet, nothing to lose.
    faults.fire("store.save.before-staging")

    staged: list[tuple[str, Path]] = []
    try:
        counts = []
        for index, (matrix, row_ids) in enumerate(shard_parts):
            sketch_name, rows_name = _shard_names(index)
            block = np.ascontiguousarray(matrix, dtype=_SKETCH_DTYPE)
            ids = np.ascontiguousarray(row_ids, dtype=_ROWID_DTYPE)
            _stage(path / sketch_name, block.tobytes(), staged)
            _stage(path / rows_name, ids.tobytes(), staged)
            counts.append(int(block.shape[0]))

        offsets = [0]
        total = 0
        body = bytearray()
        for record in records:
            blob = _encode_record(record)
            body.extend(blob)
            offsets.append(offsets[-1] + len(blob))
            total += 1
        _stage(path / _RECORDS_BIN, bytes(body), staged)
        _stage(path / _RECORDS_IDX,
               np.asarray(offsets, dtype=_OFFSET_DTYPE).tobytes(), staged)
        if statuses is None:
            statuses = bytes(total)
        elif len(statuses) != total:
            raise ParameterError(
                f"{len(statuses)} status bytes for {total} records")
        _stage(path / _STATUS_BIN, bytes(statuses), staged)
    except BaseException:
        for tmp_name, _ in staged:
            os.unlink(tmp_name)
        raise

    # Crash-matrix injection point: everything staged, commit not begun —
    # the old store (manifest included) is still fully intact.
    faults.fire("store.save.staged")

    # Commit: from here on the old store is being replaced.
    old_manifest = path / _MANIFEST
    if old_manifest.exists():
        old_manifest.unlink()
    for index, (tmp_name, final) in enumerate(staged):
        if index == 1:
            # Crash-matrix injection point: manifest gone, some staged
            # files renamed, others not — the torn-commit window where
            # only the journal can reconstruct the store.
            faults.fire("store.save.mid-commit")
        os.replace(tmp_name, final)
    live = {name for index in range(len(shard_parts))
            for name in _shard_names(index)}
    for stale in path.glob("shard-*"):
        if stale.name not in live and not stale.name.endswith(".tmp"):
            stale.unlink()

    manifest = {
        "format": FORMAT_VERSION,
        "kind": "repro-engine-store",
        "params": params.to_dict(),
        "shards": len(shard_parts),
        "shard_counts": counts,
        "records": total,
        "coords": params.n,
        "journal_seq": int(total if journal_seq is None else journal_seq),
        "journal": journal_mode,
    }
    with atomic_replace(path / _MANIFEST, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, sort_keys=True) + "\n")


def _memmap(path: Path, dtype: np.dtype, shape: tuple) -> np.ndarray:
    if 0 in shape:
        return np.empty(shape, dtype=dtype)
    if not path.exists():
        raise ParameterError(f"engine store missing data file {path.name}")
    expected = int(np.prod(shape)) * dtype.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise ParameterError(
            f"engine store file {path.name} is {actual} bytes, "
            f"manifest implies {expected}"
        )
    return np.memmap(path, dtype=dtype, mode="r", shape=shape)


def open_store(path: str | Path) -> OpenedStore:
    """Open a store directory in O(1): parse the manifest, memmap the rest.

    No sketch or record bytes are read here — pages fault in as search
    and record access touch them (see :meth:`IdentificationEngine.warm`
    for deliberate pre-touching).
    """
    path = Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise ParameterError(
            f"{path} is not an engine store (no {_MANIFEST})"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed engine manifest: {exc}") from exc
    store_format = manifest.get("format")
    if store_format not in SUPPORTED_FORMATS:
        raise ParameterError(
            f"unsupported engine store format {store_format!r}"
        )
    params = SystemParams.from_dict(manifest["params"])
    counts = manifest.get("shard_counts", [])
    if len(counts) != manifest.get("shards"):
        raise ParameterError("engine manifest shard_counts/shards mismatch")
    total = int(manifest.get("records", 0))
    if sum(counts) != total:
        raise ParameterError(
            f"engine manifest records={total} but shard counts sum "
            f"to {sum(counts)}"
        )

    shard_parts = []
    for index, count in enumerate(counts):
        sketch_name, rows_name = _shard_names(index)
        matrix = _memmap(path / sketch_name, _SKETCH_DTYPE,
                         (int(count), params.n))
        row_ids = _memmap(path / rows_name, _ROWID_DTYPE, (int(count),))
        shard_parts.append((matrix, row_ids))

    offsets = _memmap(path / _RECORDS_IDX, _OFFSET_DTYPE, (total + 1,))
    records = LazyRecordFile(path / _RECORDS_BIN, offsets)

    if store_format == 1:
        # Compatibility shim: pre-lifecycle stores have no status
        # sidecar — every row is an active version.
        statuses = bytes(total)
    else:
        status_path = path / _STATUS_BIN
        if not status_path.exists():
            raise ParameterError(
                f"engine store missing data file {_STATUS_BIN}")
        statuses = status_path.read_bytes()
        if len(statuses) != total:
            raise ParameterError(
                f"engine store file {_STATUS_BIN} is {len(statuses)} "
                f"bytes, manifest implies {total}"
            )
    return OpenedStore(params=params, shard_parts=shard_parts,
                       records=records, total_records=total,
                       manifest=manifest, statuses=statuses)
