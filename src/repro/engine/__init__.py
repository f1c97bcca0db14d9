"""Scale-out identification engine: sharded, batched, mmap-backed search.

The core layer answers "does this probe match these sketches"; this layer
answers it *at service scale*.  Layering (bottom-up):

* :mod:`repro.engine.sharded` — :class:`ShardedSketchIndex`, hash-partitioned
  sketch search with batch kernels and an optional worker pool;
* :mod:`repro.engine.lifecycle` — the versioned identity vocabulary:
  per-version status codes (active / verify-only / superseded /
  revoked), typed journal-entry opcodes (enroll / re-enroll / rotate /
  revoke) with their encodings, and :class:`SketchVersion`;
* :mod:`repro.engine.storage` — the mmap shard-file store format
  (O(1) open, lazy records).  Format v2 adds a ``status.bin`` sidecar
  (one status byte per row) and manifest lifecycle keys
  (``journal_seq``, ``journal``); v1 stores open unchanged through a
  compatibility shim (all rows active, operation count = record count);
* :mod:`repro.engine.journal` — the crash-safe write-ahead log, in two
  entry formats: ``record`` (pre-lifecycle, bare record encodings) and
  ``typed`` (opcode-tagged lifecycle entries);
* :mod:`repro.engine.engine` — :class:`IdentificationEngine`, the one
  helper-data store the protocol layer serves traffic through (records,
  batch probes, persistence, warm-up, and counters).  **Versioned record model**: each
  identity holds an append-only list of sketch versions; exactly one may
  be *active* (the one identification searches), older ones stay
  *verify-only* until revoked, rotated-away ones are *superseded*.
  :func:`compact_store` garbage-collects a store directory, dropping
  revoked/superseded rows and emitting a fresh typed journal base;
* :mod:`repro.engine.bench` — the throughput harness behind
  ``repro engine-bench``.

Import discipline: this package imports :mod:`repro.core` and
:mod:`repro.protocols.database`; protocol modules that want an engine
import it lazily (inside the constructor) to keep the package graph
acyclic.
"""

from repro.engine.bench import EngineBenchReport, make_workload, run_engine_bench
from repro.engine.engine import (
    LATENCY_BUCKET_EDGES_US,
    EngineStats,
    IdentificationEngine,
    compact_store,
)
from repro.engine.lifecycle import (
    STATUS_ACTIVE,
    STATUS_REVOKED,
    STATUS_SUPERSEDED,
    STATUS_VERIFY_ONLY,
    SketchVersion,
)
from repro.engine.sharded import ShardedSketchIndex
from repro.engine.storage import LazyRecordFile, OpenedStore, open_store, write_store

__all__ = [
    "EngineBenchReport",
    "make_workload",
    "run_engine_bench",
    "LATENCY_BUCKET_EDGES_US",
    "EngineStats",
    "IdentificationEngine",
    "compact_store",
    "STATUS_ACTIVE",
    "STATUS_REVOKED",
    "STATUS_SUPERSEDED",
    "STATUS_VERIFY_ONLY",
    "SketchVersion",
    "ShardedSketchIndex",
    "LazyRecordFile",
    "OpenedStore",
    "open_store",
    "write_store",
]
