"""The identification engine facade.

:class:`IdentificationEngine` is the authentication server's helper-data
store and the front door to the paper's identification search: sharded,
batch-capable and mmap-persistable.  Its record-store surface (``add`` /
``get`` / ``find_by_sketch`` / ``all_records`` / iteration /
``replace_helper``) is what
:class:`~repro.protocols.server.AuthenticationServer` serves from (an
in-memory single-shard engine by default), and it adds what a serving
deployment needs:

* ``search_batch`` / ``find_by_sketch_batch`` — evaluate a ``(B, n)``
  probe matrix in one vectorised pass instead of ``B`` Python-level
  round trips;
* ``save`` / ``open`` — the mmap shard format of
  :mod:`repro.engine.storage`; a million-record store opens in O(1) and
  warms on demand;
* counters — probes served, candidates per probe, and a latency
  histogram, snapshotted by :meth:`stats` for dashboards and
  ``repro simulate``.

Records loaded from disk stay lazy: the engine materialises a record's
bytes only when an identification hit (or an explicit lookup) needs it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import faults, obs
from repro.core.params import SystemParams
from repro.crypto.signatures import VerifyTableCache
from repro.engine.journal import EnrollmentJournal, journal_path
from repro.engine.lifecycle import (
    ENTRY_FORMAT_RECORD,
    ENTRY_FORMAT_TYPED,
    LIVE_STATUSES,
    OP_ENROLL,
    OP_REENROLL,
    OP_REVOKE,
    OP_ROTATE,
    STATUS_ACTIVE,
    STATUS_REVOKED,
    STATUS_SUPERSEDED,
    STATUS_VERIFY_ONLY,
    SketchVersion,
    decode_entry,
    encode_record_entry,
    encode_revoke_entry,
)
from repro.engine.sharded import ShardedSketchIndex
from repro.engine.storage import (
    LazyRecordFile,
    OpenedStore,
    _decode_record,
    open_store,
    write_store,
)
from repro.exceptions import (
    EnrollmentError,
    ParameterError,
    ReplicationError,
)
from repro.protocols.database import UserRecord

#: Upper edges (microseconds) of the latency histogram buckets, 1-2-5 per
#: decade so a 2x scan change moves buckets; the last is open-ended.
LATENCY_BUCKET_EDGES_US = (50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000,
                           20_000, 50_000, 100_000, 200_000)

_BUCKET_LABELS = tuple(
    f"<={edge}us" for edge in LATENCY_BUCKET_EDGES_US
) + (f">{LATENCY_BUCKET_EDGES_US[-1]}us",)

#: The same bucket edges in seconds — the unit the obs histogram uses.
_BUCKET_EDGES_S = tuple(edge / 1e6 for edge in LATENCY_BUCKET_EDGES_US)


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of an engine's lifetime counters.

    ``latency_buckets`` maps histogram labels (``<=50us``, ``<=100us``,
    ``<=200us`` … ``>200000us``, 1-2-5 per decade) to counts of *search
    calls* (a batch of B probes is one call); ``cold_opened``
    marks engines restored from an mmap store, ``warmed`` whether
    :meth:`IdentificationEngine.warm` has pre-touched the pages since.
    """

    enrolled: int
    shard_sizes: tuple[int, ...]
    probes_served: int
    batches_served: int
    candidates_returned: int
    cold_opened: bool
    warmed: bool
    latency_buckets: dict[str, int]
    #: Verify-key table cache counters (see ``IdentificationEngine.key_tables``).
    key_table_entries: int = 0
    key_table_hits: int = 0
    key_table_misses: int = 0
    #: Batched-verification counters: ``verify_batch`` calls through the
    #: cache and the signatures they covered (items/calls is the realised
    #: crypto coalescing, the verify-side analogue of probes/batch).
    key_table_batch_calls: int = 0
    key_table_batch_items: int = 0

    @property
    def candidates_per_probe(self) -> float:
        """Mean candidate count per probe (NaN before any probe)."""
        if self.probes_served == 0:
            return float("nan")
        return self.candidates_returned / self.probes_served

    def summary_lines(self) -> list[str]:
        """Human-readable counter summary (one string per line)."""
        state = "cold-opened" if self.cold_opened else "built in memory"
        if self.cold_opened and self.warmed:
            state += ", warmed"
        lines = [
            f"engine: {self.enrolled} enrolled across "
            f"{len(self.shard_sizes)} shard(s) {list(self.shard_sizes)} "
            f"({state})",
            f"probes served: {self.probes_served} "
            f"in {self.batches_served} search call(s), "
            f"{self.candidates_per_probe:.2f} candidates/probe",
        ]
        histogram = "  ".join(
            f"{label}:{count}" for label, count in self.latency_buckets.items()
        )
        lines.append(f"search latency histogram: {histogram}")
        if self.key_table_hits or self.key_table_misses:
            line = (
                f"verify-key tables: {self.key_table_entries} cached, "
                f"{self.key_table_hits} hit(s) / "
                f"{self.key_table_misses} miss(es)"
            )
            if self.key_table_batch_calls:
                line += (
                    f", {self.key_table_batch_items} signature(s) in "
                    f"{self.key_table_batch_calls} batched verify call(s)"
                )
            lines.append(line)
        return lines


class IdentificationEngine:
    """Sharded, batched, persistable identification store + search facade.

    Parameters
    ----------
    params:
        System geometry.
    shards:
        Hash partitions for the sketch index.
    chunk:
        Coordinate-chunk width for the scan kernels.
    workers:
        Thread pool size for parallel shard scans (``None`` = serial).
    key_table_capacity:
        LRU bound on the per-user verify-key table cache
        (:attr:`key_tables`).  Tables are built lazily once a key's
        signature verifications recur and live alongside the records, so every
        :class:`~repro.protocols.server.AuthenticationServer` mounted on
        this engine verifies against the same warm tables.  Purely
        in-memory precomputation — never persisted by :meth:`save`.
    """

    def __init__(self, params: SystemParams, shards: int = 4,
                 chunk: int = 8, workers: int | None = None,
                 key_table_capacity: int = 1024,
                 journal: EnrollmentJournal | str | Path | None = None) -> None:
        self.params = params
        self._index = ShardedSketchIndex(params, shards=shards, chunk=chunk,
                                         workers=workers)
        self.key_tables = VerifyTableCache(key_table_capacity)
        self._base: LazyRecordFile | list[UserRecord] = []
        self._extra: list[UserRecord] = []
        self._overrides: dict[int, UserRecord] = {}
        #: One lifecycle status byte per row (row == sketch version).
        self._status = bytearray()
        #: user id -> its ACTIVE row (absent when fully revoked).
        self._by_id: dict[str, int] | None = {}
        #: user id -> every row ever enrolled for it, version order.
        self._versions: dict[str, list[int]] | None = {}
        #: Lifecycle operations applied (== journal head when attached).
        self._seq = 0
        self._opened: OpenedStore | None = None
        self._cold_opened = False
        self._warmed = False
        self._journal: EnrollmentJournal | None = None
        self._journal_mode: bool | None = True if journal is not None \
            else None
        # The lock now covers only the lazy identity-map build; serving
        # counters moved to the process-wide metrics registry, whose
        # instruments carry their own (leaf) locks.  Enrollment writes
        # are *not* covered — callers serialise those.
        self._lock = threading.Lock()
        self._init_obs()
        if journal is not None:
            if not isinstance(journal, EnrollmentJournal):
                journal = EnrollmentJournal(
                    journal, params=params, base=0,
                    entry_format=ENTRY_FORMAT_TYPED)
            self.attach_journal(journal)

    def _init_obs(self) -> None:
        """Create this engine's registry instruments (one labelled series
        per engine instance); shared between ``__init__`` and ``open``."""
        instance = obs.registry.next_instance("engine")
        reg = obs.registry
        self._probes = reg.counter(
            "repro_engine_probes_total",
            "Identification probes evaluated.", labels=instance)
        self._batches = reg.counter(
            "repro_engine_batches_total",
            "Search calls (a batch of B probes is one call).",
            labels=instance)
        self._candidates = reg.counter(
            "repro_engine_candidates_total",
            "Candidate records returned across all probes.",
            labels=instance)
        self._enrolled_gauge = reg.gauge(
            "repro_engine_enrolled",
            "Records currently enrolled.", labels=instance,
            owner=self, fn=len)
        #: Search-call latency distribution on the 1-2-5 microsecond
        #: bucket edges of ``LATENCY_BUCKET_EDGES_US`` (50us to 200ms).
        self.scan_seconds = reg.histogram(
            "repro_identify_scan_seconds",
            "Sketch-search latency per engine search call.",
            labels=instance, edges=_BUCKET_EDGES_S)

    # -- record plumbing ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._base) + len(self._extra)

    def _record(self, row: int) -> UserRecord:
        override = self._overrides.get(row)
        if override is not None:
            return override
        base = len(self._base)
        return self._base[row] if row < base else self._extra[row - base]

    def __iter__(self) -> Iterator[UserRecord]:
        for row in range(len(self)):
            yield self._record(row)

    def all_records(self) -> list[UserRecord]:
        """Snapshot of every record in enrollment order.

        Materialises lazy records — an O(N) walk, intended for the O(N)
        baseline protocol and for tests, not the identification hot path.
        """
        return [self._record(row) for row in range(len(self))]

    def _identity_map(self) -> dict[str, int]:
        if self._by_id is None:
            # Cold-opened store: build the id/version maps once, on
            # first need (double-checked under the lock so two
            # concurrent lookups don't build them twice).
            with self._lock:
                if self._by_id is None:
                    versions: dict[str, list[int]] = {}
                    by_id: dict[str, int] = {}
                    for row, record in enumerate(self):
                        versions.setdefault(record.user_id, []).append(row)
                        if self._status[row] == STATUS_ACTIVE:
                            by_id[record.user_id] = row
                    self._versions = versions
                    self._by_id = by_id
        return self._by_id

    def _version_map(self) -> dict[str, list[int]]:
        self._identity_map()
        assert self._versions is not None
        return self._versions

    def _append_row(self, record: UserRecord, status: int) -> int:
        """Append one sketch version row (index, record, status, maps)."""
        row = self._index.add(record.helper().movements)
        assert row == len(self), "index/record row drift"
        # Record first, then the id-map entries: a concurrent get() (the
        # service layer's verify pool) must never see a row id whose
        # backing record has not landed yet.
        self._extra.append(record)
        self._status.append(status)
        self._version_map().setdefault(record.user_id, []).append(row)
        if status == STATUS_ACTIVE:
            self._identity_map()[record.user_id] = row
        return row

    # -- enrollment ---------------------------------------------------------------

    def _journal_lifecycle(self, payload: bytes) -> None:
        """Write-ahead one typed lifecycle entry (refused on old logs)."""
        if self._journal is None:
            return
        if self._journal.entry_format != ENTRY_FORMAT_TYPED:
            raise ParameterError(
                "attached journal predates lifecycle entries; run "
                "`repro compact` on the store to upgrade it")
        self._journal.append_entry(payload)

    def add(self, record: UserRecord) -> None:
        """Enroll a new identity; refuses duplicates (any version state).

        Re-activating or refreshing an
        existing identity goes through :meth:`reenroll` / :meth:`rotate`.
        """
        if record.user_id in self._version_map():
            raise EnrollmentError(f"user {record.user_id!r} already enrolled")
        record.helper()  # validate before the journal write
        # Write-ahead: the journal entry is durable *before* any
        # in-memory structure mutates, so a crash between the two
        # replays the enrollment on reopen instead of losing it.
        if self._journal is not None:
            self._journal.append(record)
        self._append_row(record, STATUS_ACTIVE)
        self._seq += 1

    def add_many(self, records: list[UserRecord]) -> None:
        """Bulk-enroll records with a single index write.

        Validates duplicates (against the store *and* within the batch)
        before touching the index, so a rejected batch leaves the engine
        unchanged.
        """
        versions = self._version_map()
        by_id = self._identity_map()
        seen: set[str] = set()
        for record in records:
            if record.user_id in versions or record.user_id in seen:
                raise EnrollmentError(
                    f"user {record.user_id!r} already enrolled"
                )
            seen.add(record.user_id)
        if not records:
            return
        movements = np.stack([record.helper().movements
                              for record in records])
        # Write-ahead (see add()): every record journaled before the
        # single index write below.
        if self._journal is not None:
            for record in records:
                self._journal.append(record)
        rows = self._index.add_many(movements)
        assert rows[0] == len(self), "index/record row drift"
        # Records before id-map entries (see add()).
        self._extra.extend(records)
        self._status.extend(bytes(len(records)))  # STATUS_ACTIVE == 0
        for row, record in zip(rows, records):
            versions.setdefault(record.user_id, []).append(row)
            by_id[record.user_id] = row
        self._seq += len(records)

    def _lifecycle_add(self, record: UserRecord, supersede: bool) -> int:
        """Shared re-enroll/rotate path; returns the new version index."""
        versions = self._version_map()
        if record.user_id not in versions:
            raise EnrollmentError(f"user {record.user_id!r} not enrolled")
        record.helper()  # validate before the journal write
        op = OP_ROTATE if supersede else OP_REENROLL
        self._journal_lifecycle(encode_record_entry(op, record))
        if supersede:
            # Crash-matrix injection point: the rotate is durable in the
            # journal but no in-memory (or store) structure has moved —
            # recovery must replay it, not lose it.
            faults.fire("engine.rotate.journaled")
        self._apply_version(record, supersede)
        return len(versions[record.user_id]) - 1

    def reenroll(self, record: UserRecord) -> int:
        """Enroll a fresh sketch version for an existing identity.

        The previous active version (if any) is demoted to verify-only —
        it keeps answering verification against old helper data and
        survives compaction.  Returns the new version index.
        """
        return self._lifecycle_add(record, supersede=False)

    def rotate(self, record: UserRecord) -> int:
        """Replace an identity's active sketch, superseding the old one.

        Rotation is the "assume the old sketch leaked" move: the
        previous active version is marked superseded and dropped by the
        next compaction.  Returns the new version index.
        """
        return self._lifecycle_add(record, supersede=True)

    def revoke(self, user_id: str, version: int | None = None) -> int:
        """Revoke one sketch version (``None`` = every remaining one).

        Idempotent: revoking an unknown identity, an out-of-range
        version, or an already-revoked version changes (and journals)
        nothing.  Revoking the active version promotes the newest
        verify-only version; with none left the identity goes dark
        (``get`` returns ``None``).  Returns the number of versions
        newly revoked.
        """
        rows = self._version_map().get(user_id)
        if not rows:
            return 0
        if version is None:
            targets = [r for r in rows if self._status[r] != STATUS_REVOKED]
        elif 0 <= version < len(rows) and \
                self._status[rows[version]] != STATUS_REVOKED:
            targets = [rows[version]]
        else:
            targets = []
        if not targets:
            return 0
        self._journal_lifecycle(encode_revoke_entry(user_id, version))
        return self._apply_revoke(user_id, version)

    # -- lifecycle state transitions (shared by ops and journal replay) -----

    def _apply_version(self, record: UserRecord, supersede: bool) -> int:
        by_id = self._identity_map()
        active = by_id.get(record.user_id)
        if active is not None:
            self._status[active] = STATUS_SUPERSEDED if supersede \
                else STATUS_VERIFY_ONLY
        row = self._append_row(record, STATUS_ACTIVE)
        self._seq += 1
        return row

    def _apply_revoke(self, user_id: str, version: int | None) -> int:
        versions = self._version_map()
        by_id = self._identity_map()
        rows = versions.get(user_id)
        if rows is None:
            raise EnrollmentError(f"user {user_id!r} not enrolled")
        if version is None:
            targets = [r for r in rows if self._status[r] != STATUS_REVOKED]
        elif 0 <= version < len(rows):
            targets = [rows[version]]
        else:
            targets = []
        revoked = 0
        for row in targets:
            if self._status[row] != STATUS_REVOKED:
                self._status[row] = STATUS_REVOKED
                revoked += 1
        active = by_id.get(user_id)
        if active is not None and self._status[active] == STATUS_REVOKED:
            # Deterministic promotion: the newest verify-only version
            # takes over; superseded versions stay retired (rotation
            # already declared them burnt).
            survivor = next(
                (r for r in reversed(rows)
                 if self._status[r] == STATUS_VERIFY_ONLY), None)
            if survivor is None:
                del by_id[user_id]
            else:
                self._status[survivor] = STATUS_ACTIVE
                by_id[user_id] = survivor
        self._seq += 1
        return revoked

    def get(self, user_id: str) -> UserRecord | None:
        """The identity's *active* record, or ``None`` (incl. fully
        revoked identities)."""
        row = self._identity_map().get(user_id)
        return self._record(row) if row is not None else None

    def get_versions(self, user_id: str) -> list[SketchVersion]:
        """Every sketch version ever enrolled for ``user_id``, in order."""
        rows = self._version_map().get(user_id, [])
        return [
            SketchVersion(version=i, status=self._status[row],
                          record=self._record(row))
            for i, row in enumerate(rows)
        ]

    def get_version(self, user_id: str, version: int) -> UserRecord | None:
        """A specific *live* version's record, else ``None``.

        Verify-only versions resolve — they remain verifiable against
        old helper data until revoked.  Superseded (rotated-away) and
        revoked versions do not: a rotate burns the old sketch, and
        resolving it here would undo exactly that.
        """
        rows = self._version_map().get(user_id, [])
        if not 0 <= version < len(rows):
            return None
        row = rows[version]
        if self._status[row] not in LIVE_STATUSES:
            return None
        return self._record(row)

    def active_version(self, user_id: str) -> int | None:
        """The active version's index, or ``None`` when the identity is
        unknown or fully revoked."""
        row = self._identity_map().get(user_id)
        if row is None:
            return None
        return self._version_map()[user_id].index(row)

    def identity_count(self) -> int:
        """Identities with at least one non-revoked version."""
        self._identity_map()
        assert self._versions is not None
        return sum(
            1 for rows in self._versions.values()
            if any(self._status[r] != STATUS_REVOKED for r in rows)
        )

    def replace_helper(self, user_id: str, helper_data: bytes) -> None:
        """Overwrite a stored helper blob (the Section VI insider move).

        The sketch index is deliberately *not* refreshed — an insider rewrites bytes at rest,
        not the server's in-memory structures.
        """
        row = self._identity_map().get(user_id)
        if row is None:
            raise EnrollmentError(f"user {user_id!r} not enrolled")
        old = self._record(row)
        new = UserRecord(user_id=old.user_id, verify_key=old.verify_key,
                         helper_data=helper_data)
        base = len(self._base)
        if row < base:
            self._overrides[row] = new
        else:
            self._extra[row - base] = new

    # -- search -------------------------------------------------------------------

    def _observe(self, probes: int, candidates: int, elapsed_s: float) -> None:
        self._probes.inc(probes)
        self._batches.inc()
        self._candidates.inc(candidates)
        self.scan_seconds.observe(elapsed_s)
        # When the calling thread carries a request trace (the serial
        # serving path; the frontend fans out batch spans itself), the
        # search lands as that trace's "scan" span.
        obs.tracer.record("scan", elapsed_s, detail=f"probes={probes}")

    def _active_only(self, rows: list[int]) -> list[int]:
        """Drop non-active versions from a hit list (identification only
        ever matches an identity's current sketch)."""
        status = self._status
        return [row for row in rows if status[row] == STATUS_ACTIVE]

    def search(self, probe: np.ndarray) -> list[int]:
        """Active-version row ids whose enrolled sketch matches ``probe``."""
        start = time.perf_counter()
        rows = self._active_only(self._index.search(probe))
        self._observe(1, len(rows), time.perf_counter() - start)
        return rows

    def search_batch(self, probes: np.ndarray) -> list[list[int]]:
        """Row ids matching each row of a ``(B, n)`` probe matrix."""
        start = time.perf_counter()
        rows = [self._active_only(r)
                for r in self._index.search_batch(probes)]
        self._observe(len(rows), sum(len(r) for r in rows),
                      time.perf_counter() - start)
        return rows

    def find_by_sketch(self, probe: np.ndarray) -> list[UserRecord]:
        """Records whose enrolled sketch matches the probe (conditions 1-4)."""
        return [self._record(row) for row in self.search(probe)]

    def find_by_sketch_batch(self,
                             probes: np.ndarray) -> list[list[UserRecord]]:
        """Per-probe candidate records for a ``(B, n)`` probe matrix."""
        return [
            [self._record(row) for row in rows]
            for rows in self.search_batch(probes)
        ]

    # -- journal / replication ----------------------------------------------------

    @property
    def journal(self) -> EnrollmentJournal | None:
        """The attached enrollment journal (``None`` when unjournaled)."""
        return self._journal

    def journal_seq(self) -> int:
        """The next journal sequence number — the engine's lifecycle
        operation count (journal head when one is attached, so
        health/replication lag stays comparable either way)."""
        return self._journal.head_seq if self._journal is not None \
            else self._seq

    def _apply_entry(self, payload: bytes, entry_format: str) -> None:
        """Apply one journal entry (replay/replication; no re-journaling
        here — callers own the write-ahead step).  Advances ``_seq``."""
        if entry_format == ENTRY_FORMAT_RECORD:
            op: int = OP_ENROLL
            body: object = _decode_record(payload)
        else:
            op, body = decode_entry(payload)
        if op == OP_ENROLL:
            record = body
            if record.user_id in self._version_map():
                raise EnrollmentError(
                    f"user {record.user_id!r} already enrolled")
            self._append_row(record, STATUS_ACTIVE)
            self._seq += 1
        elif op in (OP_REENROLL, OP_ROTATE):
            record = body
            if record.user_id not in self._version_map():
                raise EnrollmentError(
                    f"user {record.user_id!r} not enrolled")
            self._apply_version(record, supersede=(op == OP_ROTATE))
        elif op == OP_REVOKE:
            user_id, version = body
            self._apply_revoke(user_id, version)

    def attach_journal(self, journal: EnrollmentJournal) -> int:
        """Attach a journal, replaying any entries past current state.

        The journal must cover the suffix of this engine's history
        (``journal.base <= journal_seq()``) and carry matching
        parameters.  Entries from the engine's operation count on are
        replayed (journaling disabled during replay — they are already
        in the log).  Returns the number of replayed entries.
        """
        if journal.params.to_dict() != self.params.to_dict():
            raise ParameterError(
                "journal parameters do not match the engine's")
        if self._journal is not None:
            raise ParameterError("engine already has a journal attached")
        if journal.base > self._seq:
            raise ParameterError(
                f"journal base is {journal.base} but the engine has seen "
                f"only {self._seq} operation(s): history gap")
        replayed = 0
        # self._journal is still None here, so nothing re-appends.
        for _seq, payload in journal.read(self._seq):
            try:
                self._apply_entry(payload, journal.entry_format)
            except EnrollmentError as exc:
                raise ParameterError(
                    f"journal replay conflicts with store state: {exc}"
                ) from exc
            replayed += 1
        self._journal = journal
        return replayed

    def apply_replicated(self, entries: list[tuple[int, bytes]]) -> int:
        """Apply replicated journal entries (a follower's ingest path).

        Payloads are **typed** lifecycle entries — the replication
        server converts record-format journals on the way out
        (:meth:`AuthenticationServer.handle_replicate_subscribe`).
        Entries whose sequence number is already covered are skipped
        (idempotent catch-up); a gap raises
        :class:`~repro.exceptions.ReplicationError` — the follower must
        re-fetch from its actual offset.  Every applied entry is first
        re-journaled locally when the follower has its own journal
        (durability survives follower restarts).  Returns the number of
        newly applied entries.
        """
        applied = 0
        for seq, payload in entries:
            have = self.journal_seq()
            if seq < have:
                continue
            if seq > have:
                raise ReplicationError(
                    f"replication gap: follower at seq {have}, "
                    f"stream resumed at {seq}")
            try:
                self._journal_lifecycle(payload)
                self._apply_entry(payload, ENTRY_FORMAT_TYPED)
            except (EnrollmentError, ParameterError) as exc:
                raise ReplicationError(
                    f"replicated entry conflicts with follower state: "
                    f"{exc}") from exc
            applied += 1
        return applied

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the engine as an mmap store directory (see storage docs).

        The journal (when attached and living in the same directory) is
        untouched: the store is the checkpoint, the journal the full
        history; after a save, reopening replays zero entries because
        the manifest's operation count has caught up with the journal
        head.  The manifest also records the journal attachment mode,
        so :meth:`open` resumes it without being told.
        """
        write_store(path, self.params, self._index.shard_parts(), iter(self),
                    statuses=bytes(self._status),
                    journal_seq=self._seq,
                    journal_mode=self._journal_mode)

    @classmethod
    def open(cls, path: str | Path, chunk: int = 8,
             workers: int | None = None,
             key_table_capacity: int = 1024,
             journal: bool | None = None) -> "IdentificationEngine":
        """Open a saved store in O(1); records and pages load lazily.

        The identity map (``get`` by user id) is built on first use —
        an O(N) walk the search path never needs.  Enrolling into an
        opened engine promotes the touched shard to RAM first.

        ``journal`` controls the crash-safety companion log:
        ``None`` (default) resumes the attachment mode the manifest
        recorded at save time, falling back (for that mode, or for
        pre-lifecycle stores that never recorded one) to attaching
        ``journal.log`` if one exists in the store directory — replaying
        any suffix past the checkpoint — and otherwise leaving the
        engine unjournaled; ``True`` additionally *creates* the journal
        when missing (new operations become crash-safe from here on);
        ``False`` never attaches one.  An explicit ``True``/``False``
        always overrides the recorded mode.
        """
        opened = open_store(path)
        engine = cls.__new__(cls)
        engine.params = opened.params
        engine._index = ShardedSketchIndex.from_parts(
            opened.params, opened.shard_parts, opened.total_records,
            chunk=chunk, workers=workers,
        )
        engine.key_tables = VerifyTableCache(key_table_capacity)
        engine._base = opened.records
        engine._extra = []
        engine._overrides = {}
        engine._status = bytearray(opened.statuses)
        engine._by_id = None  # built lazily (with the version map)
        engine._versions = None
        engine._seq = int(opened.manifest.get(
            "journal_seq", opened.total_records))
        engine._opened = opened
        engine._cold_opened = True
        engine._warmed = False
        engine._journal = None
        engine._journal_mode = journal if journal is not None \
            else opened.manifest.get("journal")
        engine._lock = threading.Lock()
        engine._init_obs()
        if engine._journal_mode is not False:
            jpath = journal_path(path)
            if jpath.exists():
                engine.attach_journal(
                    EnrollmentJournal(jpath, params=engine.params))
            elif engine._journal_mode is True:
                engine.attach_journal(EnrollmentJournal(
                    jpath, params=engine.params, base=engine._seq,
                    entry_format=ENTRY_FORMAT_TYPED))
        return engine

    @classmethod
    def recover(cls, path: str | Path, shards: int = 4, chunk: int = 8,
                workers: int | None = None,
                key_table_capacity: int = 1024) -> "IdentificationEngine":
        """Open a store directory, surviving a crash mid two-phase save.

        Tries a normal :meth:`open` first (which already replays any
        journal suffix past the checkpoint).  When the directory does
        not parse as a store — the kill -9-inside-the-commit-window
        state: manifest deleted, data files half-replaced — and a
        full-history journal is present, the entire store is rebuilt
        from the journal, checkpointed back to ``path``, and reopened.
        Without a journal the original error propagates: there is
        nothing sound to rebuild from.
        """
        path = Path(path)
        try:
            return cls.open(path, chunk=chunk, workers=workers,
                            key_table_capacity=key_table_capacity)
        except ParameterError:
            jpath = journal_path(path)
            if not jpath.exists():
                raise
        journal = EnrollmentJournal(jpath)
        if journal.base != 0:
            raise ParameterError(
                f"journal base is {journal.base}, not 0: it does not "
                f"cover the full history needed to rebuild {path}")
        rebuilt = cls(journal.params, shards=shards, chunk=chunk,
                      workers=workers,
                      key_table_capacity=key_table_capacity)
        rebuilt.attach_journal(journal)  # replays every entry
        rebuilt._journal_mode = True
        # Sweep temp files the interrupted save left behind, then lay
        # down a fresh checkpoint so the next open() is a plain open.
        for stale in path.glob("*.tmp"):
            stale.unlink()
        rebuilt.save(path)
        return rebuilt

    def _bulk_load(self, records: list[UserRecord],
                   statuses: bytes) -> None:
        """Load pre-validated rows with explicit statuses (compaction's
        rebuild path); identity/version maps rebuild lazily."""
        if records:
            movements = np.stack([record.helper().movements
                                  for record in records])
            self._index.add_many(movements)
            self._extra.extend(records)
            self._status.extend(statuses)
        self._by_id = None
        self._versions = None

    def warm(self) -> int:
        """Touch every sketch page so first searches pay no fault cost.

        Returns the number of sketch bytes resident after warming.
        """
        touched = 0
        for matrix, row_ids in self._index.shard_parts():
            if matrix.size:
                np.sum(matrix, dtype=np.int64)  # forces every page in
            if row_ids.size:
                np.sum(row_ids, dtype=np.int64)
            touched += matrix.nbytes + row_ids.nbytes
        self._warmed = True
        return touched

    def close(self) -> None:
        """Release worker threads, lazy file handles, and store memmaps.

        Terminal: the index drops its shard arrays and the backing
        :class:`~repro.engine.storage.OpenedStore` (when the engine was
        cold-opened) drops its maps, so every shard/offset memmap — and
        the duplicated fd each one holds — is freed and serve/restart
        cycles over one store directory do not accumulate mappings.
        Idempotent; a closed engine reads as empty rather than serving
        dangling memory.
        """
        self._index.release()
        if isinstance(self._base, LazyRecordFile):
            self._base.release()
        self._base = []
        self._extra = []
        self._overrides = {}
        self._status = bytearray()
        self._by_id = {}
        self._versions = {}
        if self._opened is not None:
            self._opened.close()
            self._opened = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "IdentificationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ------------------------------------------------------------

    def stats(self) -> EngineStats:
        """Counter snapshot for dashboards / the bench CLI."""
        latency = dict(zip(_BUCKET_LABELS, self.scan_seconds.bucket_counts()))
        return EngineStats(
            enrolled=len(self),
            shard_sizes=self._index.shard_sizes(),
            probes_served=self._probes.value,
            batches_served=self._batches.value,
            candidates_returned=self._candidates.value,
            cold_opened=self._cold_opened,
            warmed=self._warmed,
            latency_buckets=latency,
            key_table_entries=len(self.key_tables),
            key_table_hits=self.key_tables.hits,
            key_table_misses=self.key_tables.misses,
            key_table_batch_calls=self.key_tables.batch_calls,
            key_table_batch_items=self.key_tables.batch_items,
        )


def compact_store(path: str | Path, shards: int = 4, chunk: int = 8,
                  workers: int | None = None,
                  key_table_capacity: int = 1024) -> dict:
    """GC/compact a store directory in place (``repro compact``).

    Recovers the store (journal replay included, so a store killed
    mid-save compacts correctly), rewrites it keeping only live sketch
    versions (active + verify-only; revoked and superseded rows are the
    garbage), and — when the store was journaled — replaces the journal
    with a fresh, empty one based at the current operation count.  A
    follower that was still behind the new base cannot resume from this
    journal (by design: its prefix is gone) and must bootstrap from a
    store copy.

    Returns a summary dict (rows kept/dropped, identities, new base).
    """
    path = Path(path)
    engine = IdentificationEngine.recover(
        path, shards=shards, chunk=chunk, workers=workers,
        key_table_capacity=key_table_capacity)
    params = engine.params
    base = engine.journal_seq()
    journaled = engine.journal is not None
    mode = engine._journal_mode
    keep_records: list[UserRecord] = []
    keep_statuses = bytearray()
    dropped = 0
    for row in range(len(engine)):
        status = engine._status[row]
        if status in LIVE_STATUSES:
            keep_records.append(engine._record(row))
            keep_statuses.append(status)
        else:
            dropped += 1
    engine.close()

    compacted = IdentificationEngine(
        params, shards=shards, chunk=chunk, workers=workers,
        key_table_capacity=key_table_capacity)
    compacted._bulk_load(keep_records, bytes(keep_statuses))
    compacted._seq = base
    compacted._journal_mode = True if journaled else mode
    compacted.save(path)
    if journaled:
        # The old log's history is checkpointed into the store now;
        # start a fresh (typed) log at the carried-forward base.  A
        # crash between unlink and create self-heals: the manifest's
        # journal mode makes the next open create the same journal.
        jpath = journal_path(path)
        jpath.unlink(missing_ok=True)
        EnrollmentJournal(jpath, params=params, base=base,
                          entry_format=ENTRY_FORMAT_TYPED).close()
    identities = compacted.identity_count()
    compacted.close()
    return {
        "rows_kept": len(keep_records),
        "rows_dropped": dropped,
        "identities": identities,
        "journal_base": base,
        "journaled": journaled,
    }
