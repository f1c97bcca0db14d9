"""Hash-partitioned sketch search across a pool of shards.

:class:`ShardedSketchIndex` is the scan index: it splits the enrolled
sketches into ``W`` shards by a deterministic content hash of each
sketch, scans every shard with the one batch kernel
:func:`~repro.core.index.batch_match_rows`, and merges shard-local hits
back into global enrollment-order row ids.  ``shards=1`` is the flat
index, and a single-probe :meth:`~ShardedSketchIndex.search` is a batch
of one.  Results are bit-for-bit identical to the naive per-record loop
(property-tested in ``tests/engine/test_sharded.py``).

Each shard is **scan-shaped**: one coordinate-major ``(n, count)`` array
at :func:`~repro.core.index.movement_dtype` (int16 whenever
``ka // 2 <= 32767``), so coordinate ``c`` of every row is one
contiguous run that the kernel gathers through its lookup table without
copying a block first.  The store's shard files hold the same bytes
(:mod:`repro.engine.storage`).  Sharding buys three things:

* **parallelism** — shards are independent, so a worker pool can scan
  them concurrently (``workers > 1`` uses a shared thread pool; the numpy
  kernels release the GIL for the bulk of their work);
* **incremental persistence** — each shard serialises to its own
  mmap-able file, so a store opens in O(1) and loads pages on demand;
* **bounded working set** — a shard holds ``~N/W`` rows, keeping
  per-scan temporaries inside cache at database sizes where a flat array
  would spill.

Shard assignment hashes the sketch *content* (ring positions weighted by
a fixed pseudo-random vector), not the insertion order, so the same
sketch always lands in the same shard regardless of enrollment history —
a property the storage layer relies on when stores are merged or
re-opened and appended to.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.index import (
    BatchLuts,
    _as_movement_matrix,
    _as_movement_vector,
    batch_match_rows,
    movement_dtype,
)
from repro.core.numberline import IntArray
from repro.core.params import SystemParams
from repro.exceptions import ParameterError

#: Seed for the shard-assignment hash weights; fixed so that shard
#: placement is stable across processes and library versions.
_SHARD_HASH_SEED = 0x5CE7C4

_INITIAL_SHARD_CAPACITY = 256

#: Rows hashed per step by :meth:`ShardedSketchIndex._shard_of`, so its
#: int64/uint64 temporaries stay a few MB whatever the batch size.
_HASH_ROWS = 4096

#: Rows transposed per step by :meth:`_Shard.append_block`.
_TRANSPOSE_ROWS = 512


class _Shard:
    """One partition: a growable coordinate-major ``(n, count)`` array
    (at :func:`~repro.core.index.movement_dtype`) + global row ids.

    The array may start life as a read-only ``np.memmap`` (opened store);
    the first mutation promotes it to an in-memory copy.
    """

    def __init__(self, params: SystemParams,
                 columns: np.ndarray | None = None,
                 row_ids: np.ndarray | None = None) -> None:
        self.params = params
        if columns is None:
            self._columns = np.empty((params.n, _INITIAL_SHARD_CAPACITY),
                                     dtype=movement_dtype(params))
            self._row_ids = np.empty(_INITIAL_SHARD_CAPACITY, dtype=np.int64)
            self._count = 0
            self._frozen = False
        else:
            if columns.shape[1] != row_ids.shape[0]:
                raise ParameterError(
                    f"shard array has {columns.shape[1]} rows but "
                    f"{row_ids.shape[0]} row ids"
                )
            self._columns = columns
            self._row_ids = row_ids
            self._count = columns.shape[1]
            self._frozen = True  # memmap-backed; promote before writing

    def __len__(self) -> int:
        return self._count

    @property
    def columns(self) -> np.ndarray:
        """The live ``(n, count)`` view of this shard's sketches."""
        return self._columns[:, : self._count]

    @property
    def row_ids(self) -> np.ndarray:
        """Global enrollment-order ids for each shard row."""
        return self._row_ids[: self._count]

    def _reserve(self, extra: int) -> None:
        needed = self._count + extra
        if self._frozen:  # promote a memmap to an exact-fit RAM copy
            capacity = max(needed, _INITIAL_SHARD_CAPACITY)
        elif needed <= self._columns.shape[1]:
            return
        else:
            capacity = max(self._columns.shape[1], 1)
            while capacity < needed:
                capacity *= 2
        columns = np.empty((self.params.n, capacity),
                           dtype=movement_dtype(self.params))
        columns[:, : self._count] = self.columns
        row_ids = np.empty(capacity, dtype=np.int64)
        row_ids[: self._count] = self.row_ids
        self._columns, self._row_ids = columns, row_ids
        self._frozen = False

    def append_block(self, block: np.ndarray, row_ids: np.ndarray) -> None:
        """Append validated ``(k, n)`` rows with their global ids."""
        if block.shape[0] == 0:
            return
        self._reserve(block.shape[0])
        # Transposed a row block at a time: one whole-block strided copy
        # runs about 4x slower.
        for lo in range(0, block.shape[0], _TRANSPOSE_ROWS):
            rows = block[lo: lo + _TRANSPOSE_ROWS]
            at = self._count + lo
            self._columns[:, at: at + rows.shape[0]] = rows.T
        self._row_ids[self._count: self._count + block.shape[0]] = row_ids
        self._count += block.shape[0]

    def release(self) -> None:
        """Drop the backing arrays (terminal; the shard reads as empty).

        For memmap-backed shards this is what lets the mapping and its
        fd be freed — the shard's reference is usually the last one.
        """
        self._columns = np.empty((self.params.n, 0),
                                 dtype=movement_dtype(self.params))
        self._row_ids = np.empty(0, dtype=np.int64)
        self._count = 0
        self._frozen = False


class ShardedSketchIndex:
    """W-way hash-partitioned sketch index with batch and parallel search.

    Shares the reference indexes' surface (``add`` / ``add_many`` /
    ``search`` / ``len``) and adds :meth:`search_batch` — the ``(B, n)``
    probe-matrix entry point the identification engine serves traffic
    through.

    Parameters
    ----------
    params:
        System geometry (``ka`` ring, threshold ``t``, dimension ``n``).
    shards:
        Number of partitions ``W``.
    chunk:
        Coordinate-chunk width: survivors are compacted after each chunk.
    workers:
        Thread-pool size for parallel shard scans; ``None`` or ``1``
        scans serially (the right default on single-core hosts).
    """

    def __init__(self, params: SystemParams, shards: int = 4,
                 chunk: int = 8, workers: int | None = None) -> None:
        if shards < 1:
            raise ParameterError("shards must be >= 1")
        if chunk < 1:
            raise ParameterError("chunk must be >= 1")
        if workers is not None and workers < 1:
            raise ParameterError("workers must be >= 1 (or None)")
        self.params = params
        self.chunk = chunk
        self.workers = workers
        self._shards = [_Shard(params) for _ in range(shards)]
        self._total = 0
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()  # lazy pool creation race guard
        rng = np.random.default_rng(_SHARD_HASH_SEED)
        self._hash_weights = rng.integers(
            1, np.iinfo(np.int64).max, size=params.n
        ).astype(np.uint64)

    # -- construction from persisted parts -----------------------------------------

    @classmethod
    def from_parts(cls, params: SystemParams,
                   parts: list[tuple[np.ndarray, np.ndarray]],
                   total: int, chunk: int = 8,
                   workers: int | None = None) -> "ShardedSketchIndex":
        """Rebuild an index from per-shard ``(columns, row_ids)`` pairs.

        The arrays are used as-is (typically read-only memmaps from
        :mod:`repro.engine.storage`); appending later promotes the touched
        shard to RAM.
        """
        index = cls(params, shards=max(len(parts), 1), chunk=chunk,
                    workers=workers)
        if parts:  # empty parts: keep the constructor's one empty shard
            index._shards = [
                _Shard(params, columns=columns, row_ids=row_ids)
                for columns, row_ids in parts
            ]
        index._total = total
        return index

    # -- basics -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._total

    @property
    def shards(self) -> int:
        """Number of partitions ``W``."""
        return len(self._shards)

    def shard_sizes(self) -> tuple[int, ...]:
        """Enrolled-row count per shard (hash balance diagnostic)."""
        return tuple(len(shard) for shard in self._shards)

    def shard_parts(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-shard ``(columns, row_ids)`` views, for the storage layer;
        ``columns`` is the coordinate-major ``(n, count)`` array."""
        return [(shard.columns, shard.row_ids) for shard in self._shards]

    def _shard_of(self, block: np.ndarray) -> np.ndarray:
        """Deterministic content-hash shard assignment for ``(B, n)`` rows.

        Hashes ``_HASH_ROWS`` rows at a time; each row's shard depends
        on that row alone.
        """
        assignment = np.empty(block.shape[0], dtype=np.int64)
        for start in range(0, block.shape[0], _HASH_ROWS):
            rows = block[start: start + _HASH_ROWS]
            positions = rows.astype(np.int64) % self.params.interval_width
            hashes = positions.astype(np.uint64) * self._hash_weights  # wraps
            mixed = hashes.sum(axis=1, dtype=np.uint64) \
                + np.uint64(0x9E3779B97F4A7C15)
            assignment[start: start + rows.shape[0]] = \
                mixed % np.uint64(len(self._shards))
        return assignment

    # -- insertion ---------------------------------------------------------------

    def add(self, sketch: IntArray) -> int:
        """Insert one sketch; returns its global row id (enrollment order)."""
        row = _as_movement_vector(self.params, sketch, "sketch")
        block = row.reshape(1, -1)
        shard = int(self._shard_of(block)[0])
        row_id = self._total
        self._shards[shard].append_block(
            block, np.array([row_id], dtype=np.int64)
        )
        self._total += 1
        return row_id

    def add_many(self, sketches: IntArray) -> list[int]:
        """Bulk-insert a ``(B, n)`` stack; returns global row ids.

        One hash pass (in bounded row chunks) assigns every row to its
        shard, then each shard receives a single block write.  A
        validated int16 or int32 stack is used as-is, with no widening
        copy.
        """
        block = _as_movement_matrix(self.params, sketches, "sketches")
        count = block.shape[0]
        if count == 0:
            return []
        assignment = self._shard_of(block)
        row_ids = np.arange(self._total, self._total + count, dtype=np.int64)
        for shard_id in range(len(self._shards)):
            mask = assignment == shard_id
            if mask.any():
                self._shards[shard_id].append_block(
                    block[mask], row_ids[mask]
                )
        self._total += count
        return row_ids.tolist()

    # -- search -----------------------------------------------------------------

    def _map_shards(self, task) -> list:
        """Apply ``task(shard)`` to every shard, using the pool if enabled."""
        live = [s for s in self._shards if len(s)]
        if not live:
            return []
        if self.workers is None or self.workers <= 1 or len(live) == 1:
            return [task(shard) for shard in live]
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=min(self.workers, len(self._shards)),
                    thread_name_prefix="sketch-shard",
                )
            pool = self._pool
        return list(pool.map(task, live))

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pool restarts on use)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def release(self) -> None:
        """Terminal close: the pool *and* every shard's backing arrays.

        Memmap-backed shards drop their array references so the store's
        mappings (and duplicated fds) can be freed; the index afterwards
        reads as empty.  The engine calls this from its own ``close``.
        """
        self.close()
        for shard in self._shards:
            shard.release()
        self._total = 0

    def search(self, probe: IntArray) -> list[int]:
        """Global row ids of all enrolled sketches matching ``probe``: a
        :meth:`search_batch` of one."""
        row = _as_movement_vector(self.params, probe, "probe")
        return self.search_batch(row[None])[0]

    def search_batch(self, probes: IntArray) -> list[list[int]]:
        """Global row ids matching each row of a ``(B, n)`` probe matrix.

        Every shard evaluates the whole batch in one
        :func:`~repro.core.index.batch_match_rows` pass, and all of them
        read one :class:`~repro.core.index.BatchLuts`, so each lookup
        table is built once per batch; per-probe hits are merged across
        shards and sorted, so the ids come in enrollment order.
        """
        probes = _as_movement_matrix(self.params, probes, "probes")
        n_probes = probes.shape[0]
        if n_probes == 0:
            return []
        ka, t = self.params.interval_width, self.params.t
        luts = BatchLuts(probes, ka, t)

        def scan(shard: _Shard) -> list[np.ndarray]:
            local = batch_match_rows(shard.columns, probes, ka, t,
                                     self.chunk, luts=luts)
            return [shard.row_ids[rows] for rows in local]

        per_shard = self._map_shards(scan)
        if not per_shard:
            return [[] for _ in range(n_probes)]
        results = []
        for b in range(n_probes):
            merged = np.concatenate([hits[b] for hits in per_shard])
            results.append(np.sort(merged).tolist())
        return results
