"""Server-side sketch search kernels (the paper's "pre-computations").

The identification protocol (Fig. 3) replaces per-record public-key work
with a comparison of *public sketches*.  The paper remarks that the
conditions "can be avoided by performing some pre-computations, i.e, the
server only needs to check whether s'_i is in the specific range", and
reports near-constant identification time because the remaining cost — one
``Rep`` plus one signature round — does not grow with the database.

The production index is :class:`repro.engine.sharded.ShardedSketchIndex`
(``shards=1`` is the flat index).  Each of its shards stores the enrolled
sketches **coordinate-major**: one ``(n, N)`` array whose row ``c`` holds
coordinate ``c`` of every enrolled sketch as one contiguous run, at
:func:`movement_dtype` (int16 at every practical ``ka``).  This module
holds the kernels it scans with:

* :func:`batch_match_rows` — evaluate a ``(B, n)`` probe matrix against
  an ``(n, N)`` sketch array in one pass.  Probes are processed in groups
  of up to 64; for every coordinate a small lookup table maps each of the
  ``ka`` ring positions to a 64-bit mask of the probes it satisfies, so
  one gather + one AND per enrolled value tests it against *all* probes
  in the group at once.  The tables (:class:`BatchLuts`) are built once
  per batch, not per shard, and only for the coordinate chunks a scan
  reaches; they are indexed with the raw movement: it lies
  in ``[-ka/2, ka/2]``, where numpy's negative index ``v`` reads entry
  ``ka + v = v % ka``.  Surviving rows are compacted after every
  coordinate chunk: for independent templates a random record survives
  one coordinate with probability ``≈ (2t+1)/ka`` (0.5 at paper
  parameters), so the default chunk of 8 prunes ~256x before the second
  chunk runs and the scan touches ``~N * chunk`` values.  The short tail
  is verified per probe, and small arrays (:func:`uses_luts`) are
  scanned per probe throughout.  A single probe is a batch of one.

Two reference structures remain:

* :class:`PrefixBucketIndex` — a sub-linear candidate index.  Each of the
  first ``depth`` coordinates is quantised into ring buckets of width
  ``t``; a probe enumerates the (at most 3 per coordinate) buckets a
  match could live in and intersects the posting lists.  With selectivity
  ``f = (2t+1)/ka`` per coordinate the candidate set shrinks like
  ``N * f^depth``, so this wins when ``t/ka`` is small — at the paper's
  ``t/ka = 1/4`` it needs a deep prefix, which the ablation bench
  explores.

* :class:`NaiveLoopIndex` — the per-record pure-Python loop, the oracle
  every other search is tested against.

All return *row ids whose full sketch satisfies the conditions*; ties
(multiple matches) are returned in enrollment order and resolved by the
protocol layer's challenge-response.  ``add_many`` bulk-inserts a
validated stack in one write, so a store loader does not pay a Python
call per enrolled user.
"""

from __future__ import annotations

import threading

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
    """Validate a stack of movement vectors -> ``(B, n)`` int16/int32 array.

    Shape rules of :func:`_as_sketch_matrix` plus the scan index's
    ``[-ka/2, ka/2]`` range invariant.  An int16 or int32 input is
    checked in place and returned without a copy; anything else is
    narrowed to int32.  The range test compares the extremes, not
    ``abs``: ``abs(-2**63)`` is still negative.
    """
    arr = np.asarray(matrix)
    if (arr.dtype not in (np.int16, np.int32) or arr.ndim != 2
            or arr.shape[1] != params.n):
        arr = _as_sketch_matrix(params, arr, what)
    half = params.interval_width // 2
    if arr.size and (int(arr.min()) < -half or int(arr.max()) > half):
        raise ParameterError(
            f"{what} movements must lie in [-{half}, {half}]"
        )
    return arr if arr.dtype != np.int64 else arr.astype(np.int32)


def movement_dtype(params: SystemParams) -> np.dtype:
    """The scan index's storage dtype: int16 when every movement in
    ``[-ka/2, ka/2]`` fits it (``ka // 2 <= 32767``), else int32."""
    if params.interval_width // 2 <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    return np.dtype(np.int32)


def _scan_survivors(columns: np.ndarray, probe: np.ndarray, ka: int, t: int,
                    chunk: int, survivors: np.ndarray | None = None,
                    start: int = 0) -> np.ndarray:
    """Chunked early-abort scan; returns surviving row indices (sorted).

    ``columns`` is the coordinate-major ``(n, N)`` sketch array and
    ``probe`` an ``(n,)`` int32 vector, both with movements in
    ``[-ka/2, ka/2]``; ``survivors``/``start`` resume a partially pruned
    scan, which is how the batch kernel verifies its LUT survivors.
    Arithmetic stays in int32 without a modular reduction: ``|s - p| <=
    ka``, so the ring distance is simply ``min(d, ka - d)``.
    """
    n = columns.shape[0]
    ka32 = np.int32(ka)
    t32 = np.int32(t)
    while start < n:
        few = survivors is not None and survivors.size <= _FINISH_THRESHOLD
        stop = n if few else min(start + chunk, n)
        if survivors is None:
            block = columns[start:stop]
        else:
            block = columns[start:stop, survivors]
        diff = np.abs(block - probe[start:stop, None])
        ring = np.minimum(diff, ka32 - diff)
        alive = np.all(ring <= t32, axis=0)
        if survivors is None:
            survivors = np.nonzero(alive)[0]
        else:
            survivors = survivors[alive]
        if survivors.size == 0:
            return survivors
        start = stop
    if survivors is None:  # zero-width scan over every row
        survivors = np.arange(columns.shape[1], dtype=np.intp)
    return survivors


def group_lut(group: np.ndarray, ka: int, t: int) -> np.ndarray:
    """Bitmask LUT of up to 64 probes: one ``(n, ka)`` uint64 table.

    Row ``c`` maps each ring position to the probes (bit ``b``) within
    ring distance ``t`` on coordinate ``c``, the interval ``[p-t, p+t]``:
    bits toggled at both ends on a doubled axis, prefix-XORed, and the
    halves OR-ed to fold the wrap, ``O(n * ka)``.
    """
    span = min(2 * t + 1, ka)
    cols = np.arange(group.shape[1])[:, None]
    bits = np.uint64(1) << np.arange(group.shape[0], dtype=np.uint64)
    low = (group.T.astype(np.int64) - t) % ka                # (n, B)
    edges = np.zeros((cols.size, 2 * ka), dtype=np.uint64)
    np.bitwise_xor.at(edges, (cols, low), bits)
    np.bitwise_xor.at(edges, (cols, low + span), bits)
    spans = np.bitwise_xor.accumulate(edges, axis=1)
    return spans[:, :ka] | spans[:, ka:]


class BatchLuts:
    """The bitmask LUTs of one probe batch, built a chunk at a time.

    One instance serves every shard a batch scans.  The table of probe
    group ``g0`` (64 probes) over coordinates ``[start, stop)`` is built
    on first use, under a lock, so it is built once per batch however
    many shards or threads read it.  A scan that prunes its rows within
    the first chunk never builds the rest, which at large ``n`` is
    almost all of the ``O(n * ka)`` build.
    """

    def __init__(self, probes: np.ndarray, ka: int, t: int) -> None:
        self._probes = probes
        self._ka = ka
        self._t = t
        self._tables: dict[tuple[int, int, int], np.ndarray] = {}
        self._lock = threading.Lock()

    def table(self, g0: int, start: int, stop: int) -> np.ndarray:
        """The ``(stop - start, ka)`` table of probes ``g0 .. g0 + 63``."""
        key = (g0, start, stop)
        with self._lock:
            table = self._tables.get(key)
            if table is None:
                table = self._tables[key] = group_lut(
                    self._probes[g0:g0 + 64, start:stop], self._ka, self._t)
        return table


def uses_luts(n_rows: int, ka: int,
              pair_threshold: int = PAIR_THRESHOLD) -> bool:
    """Whether :func:`batch_match_rows` enters its LUT phase on ``n_rows``."""
    return (n_rows > pair_threshold and ka <= _LUT_RING_LIMIT
            and ka <= _LUT_ROWS_FACTOR * n_rows)


def batch_match_rows(columns: np.ndarray, probes: np.ndarray, ka: int, t: int,
                     chunk: int = 8, pair_threshold: int = PAIR_THRESHOLD,
                     luts: BatchLuts | None = None) -> list[np.ndarray]:
    """Row ids matching each probe: the scan index's one kernel.

    ``columns`` is the coordinate-major ``(n, N)`` sketch array (int16 or
    int32) and ``probes`` ``(B, n)``, both with movements in
    ``[-ka/2, ka/2]`` (callers validate); returns ``B`` sorted int arrays
    of row indices whose full sketch is within ring distance ``t`` of the
    probe on every coordinate.

    ``luts`` (the :class:`BatchLuts` of ``probes``) is made here unless
    passed in, as one sharded batch does.  Its tables are indexed with the
    raw movement: numpy reads a negative ``v >= -ka/2`` as ``ka + v``,
    i.e. ``v % ka``, so no reduction pass runs.  While more than
    ``pair_threshold`` rows survive, each coordinate's contiguous run (or
    its survivors) is gathered straight through the table, and survivors
    are compacted after every chunk; per-probe tail verification does the
    rest, or all of it when :func:`uses_luts` says no.
    """
    n_cols = columns.shape[0]
    results: list[np.ndarray] = []
    use_lut = uses_luts(columns.shape[1], ka, pair_threshold)
    if use_lut and luts is None:
        luts = BatchLuts(probes, ka, t)
    for g0 in range(0, probes.shape[0], 64):
        group = probes[g0:g0 + 64].astype(np.int32)
        rows = None  # every row, no index array
        acc = None
        start = 0
        while use_lut and start < n_cols and (
                acc is None or acc.size > pair_threshold):
            stop = min(start + chunk, n_cols)
            lut = luts.table(g0, start, stop)
            for c in range(start, stop):
                col = columns[c] if rows is None else columns[c][rows]
                # An intp index gathers several times faster than int16.
                cell = lut[c - start][col.astype(np.intp)]
                acc = cell if acc is None else np.bitwise_and(acc, cell,
                                                              out=acc)
            keep = np.nonzero(acc != 0)[0]  # faster than flatnonzero(uint64)
            rows = keep if rows is None else rows[keep]
            acc = acc[keep]
            start = stop
        for b in range(group.shape[0]):
            # Resume from the LUT survivors, or scan from scratch.
            alive = rows[(acc >> np.uint64(b)) & np.uint64(1) == 1] \
                if start else None
            results.append(np.sort(_scan_survivors(
                columns, group[b], ka, t, chunk, survivors=alive,
                start=start,
            )))
    return results


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
