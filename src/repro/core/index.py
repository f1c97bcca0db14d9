"""Server-side sketch search structures (the paper's "pre-computations").

The identification protocol (Fig. 3) replaces per-record public-key work
with a comparison of *public sketches*.  The paper remarks that the
conditions "can be avoided by performing some pre-computations, i.e, the
server only needs to check whether s'_i is in the specific range", and
reports near-constant identification time because the remaining cost — one
``Rep`` plus one signature round — does not grow with the database.

Two search structures are provided:

* :class:`VectorizedScanIndex` — the production default.  Enrolled
  sketches are packed into an ``(N, n)`` int32 matrix; a probe is checked
  column-chunk by column-chunk, dropping non-matching rows after every
  chunk.  For independent templates a random record survives one
  coordinate with probability ``≈ (2t+1)/ka`` (0.5 at paper parameters),
  so the expected number of *matrix elements* touched is ``N * O(1)`` —
  ~20 ns per record for a batch of 1-3 probes at paper parameters,
  orders of magnitude below the signature that follows.  This is the
  honest implementation of the paper's "constant": the scan is
  asymptotically linear but its constant is negligible at any realistic
  database size (quantified in ``benchmarks/test_bench_index_ablation.py``).

* :class:`PrefixBucketIndex` — a sub-linear candidate index.  Each of the
  first ``depth`` coordinates is quantised into ring buckets of width
  ``t``; a probe enumerates the (at most 3 per coordinate) buckets a
  match could live in and intersects the posting lists.  With selectivity
  ``f = (2t+1)/ka`` per coordinate the candidate set shrinks like
  ``N * f^depth``, so this wins when ``t/ka`` is small — at the paper's
  ``t/ka = 1/4`` it needs a deep prefix, which the ablation bench
  explores.

Both return *candidate row ids whose full sketch satisfies the
conditions*; ties (multiple matches) are returned in enrollment order and
resolved by the protocol layer's challenge-response.

This module also hosts the **batch kernels** the scale-out engine
(:mod:`repro.engine`) is built on:

* :func:`batch_match_rows` — evaluate a ``(B, n)`` probe matrix against an
  ``(N, n)`` sketch matrix in one pass.  Probes are processed in groups of
  up to 64; for every coordinate a small lookup table maps each of the
  ``ka`` ring positions to a 64-bit mask of the probes it satisfies, so
  one gather + one AND per matrix cell tests a cell against *all* probes
  in the group at once.  The tables (:func:`group_luts`) are built once
  per batch, not per shard, and indexed with the raw movement: it lies
  in ``[-ka/2, ka/2]``, where numpy's negative index ``v`` reads entry
  ``ka + v = v % ka``.  Surviving rows are compacted after every
  coordinate chunk (the same early-abort pruning the scan uses), and the
  short tail is verified per probe.  This amortises the scan across the
  batch: ~``B``-fold less element work than looping :meth:`search`.

* ``add_many`` on every index — bulk insertion as a single validated
  ``asarray`` + one matrix write, used by the store loaders so a restart
  does not pay a Python call per enrolled user.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import ring_distance_ka
from repro.core.numberline import IntArray
from repro.core.params import SystemParams
from repro.exceptions import ParameterError

#: The bitmask-LUT path needs a ring no wider than ``_LUT_RING_LIMIT``
#: (beyond it the tables alone are unreasonably large) nor than
#: ``_LUT_ROWS_FACTOR`` times the rows scanned (an ``O(ka)`` table row per
#: coordinate must stay small next to the ``O(rows)`` work it saves).
_LUT_RING_LIMIT = 1 << 20
_LUT_ROWS_FACTOR = 8

#: Once a scan's candidate set shrinks below this, the remaining
#: coordinates are verified in a single operation — iterating tiny chunks
#: would pay numpy dispatch overhead per chunk.
_FINISH_THRESHOLD = 64

#: Candidate count at which :func:`batch_match_rows` leaves the LUT phase.
PAIR_THRESHOLD = 2048


def _as_sketch_vector(params: SystemParams, vector: IntArray,
                      what: str) -> np.ndarray:
    """Shape-check one sketch vector -> ``(n,)`` int64 array."""
    arr = np.asarray(vector, dtype=np.int64)
    if arr.shape != (params.n,):
        raise ParameterError(
            f"{what} must have shape ({params.n},), got {arr.shape}"
        )
    return arr


def _as_movement_vector(params: SystemParams, vector: IntArray,
                        what: str) -> np.ndarray:
    """Validate one movement vector -> contiguous ``(n,)`` int32 array."""
    arr = _as_sketch_vector(params, vector, what)
    return _as_movement_matrix(params, arr[None], what)[0]


def _as_sketch_matrix(params: SystemParams, matrix: IntArray,
                      what: str) -> np.ndarray:
    """Shape-check a stack of sketch vectors -> ``(B, n)`` int64 array.

    An empty input (``B == 0``) is legal and yields a ``(0, n)`` matrix.
    No range check: the bucket and naive indexes accept any integers
    (their arithmetic reduces modulo ``ka``), matching their ``add``.
    """
    arr = np.asarray(matrix, dtype=np.int64)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, params.n)
    if arr.ndim != 2 or arr.shape[1] != params.n:
        raise ParameterError(
            f"{what} must have shape (B, {params.n}), got {arr.shape}"
        )
    return arr


def _as_movement_matrix(params: SystemParams, matrix: IntArray,
                        what: str) -> np.ndarray:
    """Validate a stack of movement vectors -> ``(B, n)`` int32 array.

    Shape rules of :func:`_as_sketch_matrix` plus the scan indexes'
    ``[-ka/2, ka/2]`` range invariant.
    """
    arr = _as_sketch_matrix(params, matrix, what)
    half = params.interval_width // 2
    if arr.size and int(np.max(np.abs(arr))) > half:
        raise ParameterError(
            f"{what} movements must lie in [-{half}, {half}]"
        )
    return arr.astype(np.int32)


def _scan_survivors(matrix: np.ndarray, probe: np.ndarray, ka: int, t: int,
                    chunk: int, survivors: np.ndarray | None = None,
                    start: int = 0) -> np.ndarray:
    """Chunked early-abort scan; returns surviving row indices (sorted).

    ``matrix`` is ``(N, n)`` int32 with movements in ``[-ka/2, ka/2]``
    (memmap-backed matrices are fine); ``survivors``/``start`` allow
    resuming a partially pruned scan, which the batch kernel uses for its
    per-probe tail verification.
    """
    n = matrix.shape[1]
    ka32 = np.int32(ka)
    t32 = np.int32(t)
    while start < n:
        few = survivors is not None and survivors.size <= _FINISH_THRESHOLD
        stop = n if few else min(start + chunk, n)
        if survivors is None:
            block = matrix[:, start:stop]
        else:
            block = matrix[survivors, start:stop]
        diff = np.abs(block - probe[start:stop].astype(np.int32))
        ring = np.minimum(diff, ka32 - diff)
        alive = np.all(ring <= t32, axis=1)
        if survivors is None:
            survivors = np.nonzero(alive)[0]
        else:
            survivors = survivors[alive]
        if survivors.size == 0:
            return survivors
        start = stop
    if survivors is None:  # zero-width scan over every row
        survivors = np.arange(matrix.shape[0], dtype=np.intp)
    return survivors


def group_luts(probes: np.ndarray, ka: int, t: int) -> list[np.ndarray]:
    """Bitmask LUTs of a probe batch: one ``(n, ka)`` uint64 table per 64.

    Row ``c`` maps each ring position to the probes (bit ``b``) within
    ring distance ``t`` on coordinate ``c``, the interval ``[p-t, p+t]``:
    bits toggled at both ends on a doubled axis, prefix-XORed, and the
    halves OR-ed to fold the wrap, ``O(n * ka)`` per group.
    """
    span = min(2 * t + 1, ka)
    cols = np.arange(probes.shape[1])[:, None]
    tables = []
    for g0 in range(0, probes.shape[0], 64):
        group = probes[g0:g0 + 64]
        bits = np.uint64(1) << np.arange(group.shape[0], dtype=np.uint64)
        low = (group.T.astype(np.int64) - t) % ka            # (n, Bg)
        edges = np.zeros((cols.size, 2 * ka), dtype=np.uint64)
        np.bitwise_xor.at(edges, (cols, low), bits)
        np.bitwise_xor.at(edges, (cols, low + span), bits)
        spans = np.bitwise_xor.accumulate(edges, axis=1)
        tables.append(spans[:, :ka] | spans[:, ka:])
    return tables


def uses_luts(n_rows: int, ka: int,
              pair_threshold: int = PAIR_THRESHOLD) -> bool:
    """Whether :func:`batch_match_rows` enters its LUT phase on ``n_rows``."""
    return (n_rows > pair_threshold and ka <= _LUT_RING_LIMIT
            and ka <= _LUT_ROWS_FACTOR * n_rows)


def batch_match_rows(matrix: np.ndarray, probes: np.ndarray, ka: int, t: int,
                     chunk: int = 8, pair_threshold: int = PAIR_THRESHOLD,
                     luts: list | None = None) -> list[np.ndarray]:
    """Row ids matching each probe: the engine's vectorised batch kernel.

    ``matrix`` is ``(N, n)`` int32 and ``probes`` ``(B, n)``, both with
    movements in ``[-ka/2, ka/2]`` (callers validate); returns ``B``
    sorted int arrays of row indices whose full sketch is within ring
    distance ``t`` of the probe on every coordinate.  Equivalent to —
    and property-tested against — ``B`` independent ``search`` calls.

    ``luts`` (the :func:`group_luts` of ``probes``) are built here unless
    passed in, as one sharded batch does.  They are indexed with the raw
    movement: numpy reads a negative ``v >= -ka/2`` as ``ka + v``, i.e.
    ``v % ka``, so no reduction pass runs.  While more than
    ``pair_threshold`` rows survive, each coordinate chunk is copied once
    as a block and survivors compacted; per-probe tail verification does
    the rest, or all of it when :func:`uses_luts` says no.
    """
    n_cols = matrix.shape[1]
    results: list[np.ndarray] = []
    use_lut = uses_luts(matrix.shape[0], ka, pair_threshold)
    if use_lut and luts is None:
        luts = group_luts(probes, ka, t)
    for g0 in range(0, probes.shape[0], 64):
        group = probes[g0:g0 + 64]
        rows: slice | np.ndarray = slice(None)  # every row, no index array
        acc = None
        start = 0
        while use_lut and start < n_cols and (
                acc is None or acc.size > pair_threshold):
            lut = luts[g0 // 64]
            stop = min(start + chunk, n_cols)
            # One pass over the chunk's cache lines, not one per column.
            block = np.ascontiguousarray(matrix[rows, start:stop])
            for c in range(start, stop):
                cell = lut[c][block[:, c - start]]
                acc = cell if acc is None else np.bitwise_and(acc, cell,
                                                              out=acc)
            keep = np.flatnonzero(acc)
            rows = keep if start == 0 else rows[keep]
            acc = acc[keep]
            start = stop
        for b in range(group.shape[0]):
            # Resume from the LUT survivors, or scan from scratch (views).
            alive = rows[(acc >> np.uint64(b)) & np.uint64(1) == 1] \
                if start else None
            results.append(np.sort(_scan_survivors(
                matrix, group[b].astype(np.int32), ka, t, chunk,
                survivors=alive, start=start,
            )))
    return results


class VectorizedScanIndex:
    """Chunked early-abort scan over an ``(N, n)`` sketch matrix.

    Arithmetic stays in int32 without modular reduction: stored movements
    and probes both live in ``[-ka/2, ka/2]`` (validated on insertion and
    search), so ``|s - s'| <= ka`` and the ring distance is simply
    ``min(d, ka - d)``.  The default chunk of 8 coordinates prunes the
    candidate set by ``((2t+1)/ka)^8`` (~256x at paper parameters) before
    the second chunk runs, so the scan touches ~``N * chunk`` matrix cells
    total.
    """

    def __init__(self, params: SystemParams, chunk: int = 8,
                 capacity: int = 1024) -> None:
        if chunk < 1:
            raise ParameterError("chunk must be >= 1")
        self.params = params
        self.chunk = chunk
        self._matrix = np.empty((capacity, params.n), dtype=np.int32)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _reserve(self, extra: int) -> None:
        """Grow the backing matrix so ``extra`` more rows fit."""
        needed = self._count + extra
        capacity = max(self._matrix.shape[0], 1)
        if needed <= self._matrix.shape[0]:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.empty((capacity, self.params.n), dtype=np.int32)
        grown[: self._count] = self._matrix[: self._count]
        self._matrix = grown

    def add(self, sketch: IntArray) -> int:
        """Insert a sketch; returns its row id (enrollment order)."""
        sketch = _as_movement_vector(self.params, sketch, "sketch")
        self._reserve(1)
        self._matrix[self._count] = sketch
        self._count += 1
        return self._count - 1

    def add_many(self, sketches: IntArray) -> list[int]:
        """Bulk-insert a ``(B, n)`` stack of sketches; returns their row ids.

        One validated ``asarray`` and one matrix write — no per-row Python
        overhead; equivalent to ``[self.add(s) for s in sketches]``.
        """
        block = _as_movement_matrix(self.params, sketches, "sketches")
        self._reserve(block.shape[0])
        self._matrix[self._count: self._count + block.shape[0]] = block
        first = self._count
        self._count += block.shape[0]
        return list(range(first, self._count))

    def search(self, probe: IntArray) -> list[int]:
        """Row ids of all enrolled sketches matching ``probe``."""
        probe = _as_movement_vector(self.params, probe, "probe")
        if self._count == 0:
            return []
        survivors = _scan_survivors(
            self._matrix[: self._count], probe,
            self.params.interval_width, self.params.t,
            self.chunk,
        )
        return survivors.tolist()

    def search_batch(self, probes: IntArray) -> list[list[int]]:
        """Row ids matching each row of a ``(B, n)`` probe matrix.

        One vectorised pass (:func:`batch_match_rows`) instead of ``B``
        :meth:`search` calls; the returned lists are identical to the
        per-probe results.
        """
        probes = _as_movement_matrix(self.params, probes, "probes")
        if self._count == 0:
            return [[] for _ in range(probes.shape[0])]
        rows = batch_match_rows(
            self._matrix[: self._count], probes,
            self.params.interval_width, self.params.t, self.chunk,
        )
        return [r.tolist() for r in rows]


class PrefixBucketIndex:
    """Inverted ring-bucket index over a prefix of sketch coordinates.

    Coordinate values in ``[-ka/2, ka/2]`` are shifted to ``[0, ka)`` on
    the ring and bucketed with width ``max(t, 1)``.  Two values within
    ring distance ``t`` fall in the same or an adjacent bucket, so a probe
    only needs to inspect 3 buckets per indexed coordinate (fewer when the
    ring has fewer than 3 buckets).
    """

    def __init__(self, params: SystemParams, depth: int = 4) -> None:
        if depth < 1 or depth > params.n:
            raise ParameterError(f"depth must be in [1, {params.n}]")
        self.params = params
        self.depth = depth
        self._bucket_width = max(params.t, 1)
        self._n_buckets = -(-params.interval_width // self._bucket_width)  # ceil
        # posting[d] maps bucket id -> list of row ids.
        self._postings: list[dict[int, list[int]]] = [dict() for _ in range(depth)]
        self._sketches: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._sketches)

    def _bucket(self, value: int) -> int:
        shifted = int(value) % self.params.interval_width  # ring position in [0, ka)
        return shifted // self._bucket_width

    def add(self, sketch: IntArray) -> int:
        """Insert a sketch; returns its row id (enrollment order)."""
        sketch = _as_sketch_vector(self.params, sketch, "sketch")
        row_id = len(self._sketches)
        self._sketches.append(sketch.astype(np.int32))
        for d in range(self.depth):
            bucket = self._bucket(int(sketch[d]))
            self._postings[d].setdefault(bucket, []).append(row_id)
        return row_id

    def add_many(self, sketches: IntArray) -> list[int]:
        """Bulk-insert a ``(B, n)`` stack of sketches; returns their row ids.

        Validates the whole block with one ``asarray``, then posts the
        indexed prefix coordinates column-wise.
        """
        block = _as_sketch_matrix(self.params, sketches, "sketches")
        first = len(self._sketches)
        stored = block.astype(np.int32)
        self._sketches.extend(stored)
        for d in range(self.depth):
            buckets = (block[:, d] % self.params.interval_width) \
                // self._bucket_width
            posting = self._postings[d]
            for offset, bucket in enumerate(buckets.tolist()):
                posting.setdefault(bucket, []).append(first + offset)
        return list(range(first, len(self._sketches)))

    def _candidate_buckets(self, value: int) -> list[int]:
        centre = self._bucket(value)
        if self._n_buckets <= 3:
            return list(range(self._n_buckets))
        return sorted({
            (centre - 1) % self._n_buckets,
            centre,
            (centre + 1) % self._n_buckets,
        })

    def search(self, probe: IntArray) -> list[int]:
        """Candidate retrieval + full verification; returns matching row ids."""
        probe = _as_sketch_vector(self.params, probe, "probe")
        if not self._sketches:
            return []

        candidates: set[int] | None = None
        for d in range(self.depth):
            posting = self._postings[d]
            level: set[int] = set()
            for bucket in self._candidate_buckets(int(probe[d])):
                level.update(posting.get(bucket, ()))
            candidates = level if candidates is None else (candidates & level)
            if not candidates:
                return []

        ka = self.params.interval_width
        t = self.params.t
        matches = []
        for row_id in sorted(candidates):
            sketch = self._sketches[row_id].astype(np.int64)
            if bool(np.all(ring_distance_ka(sketch, probe, ka) <= t)):
                matches.append(row_id)
        return matches


class NaiveLoopIndex:
    """Per-record pure-Python loop — the ablation's worst case.

    Checks the paper's conditions record by record with no vectorisation.
    Exists only so the ablation bench can show what the numpy scan buys.
    """

    def __init__(self, params: SystemParams) -> None:
        self.params = params
        self._sketches: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._sketches)

    def add(self, sketch: IntArray) -> int:
        """Insert a sketch; returns its row id (enrollment order)."""
        sketch = _as_sketch_vector(self.params, sketch, "sketch")
        self._sketches.append(sketch)
        return len(self._sketches) - 1

    def add_many(self, sketches: IntArray) -> list[int]:
        """Bulk-insert a ``(B, n)`` stack of sketches; returns their row ids."""
        block = _as_sketch_matrix(self.params, sketches, "sketches")
        first = len(self._sketches)
        self._sketches.extend(block)
        return list(range(first, len(self._sketches)))

    def search(self, probe: IntArray) -> list[int]:
        """Row ids of all enrolled sketches matching ``probe``."""
        probe = _as_sketch_vector(self.params, probe, "probe")
        probe_list = [int(p) for p in probe]
        ka = self.params.interval_width
        t = self.params.t
        matches = []
        for row_id, sketch in enumerate(self._sketches):
            ok = True
            for si, pi in zip(sketch.tolist(), probe_list):
                diff = abs(si - pi)
                ring = min(diff % ka, (ka - diff) % ka)
                if ring > t:
                    ok = False
                    break
            if ok:
                matches.append(row_id)
        return matches
