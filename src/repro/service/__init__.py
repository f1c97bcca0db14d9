"""Concurrent service layer: the protocol stack's multi-client front door.

The protocol layer answers one request at a time; this layer answers
*traffic*.  It composes the two scale pieces the earlier layers built —
the engine's batched sketch search and the crypto layer's warm
verify-table cache — under real concurrency:

* :mod:`repro.service.frontend` — :class:`ServiceFrontend`, a bounded
  admission queue feeding a micro-batching scheduler: concurrent
  identification probes coalesce into one
  ``handle_identification_batch`` search per tick, concurrent
  verification responses coalesce into one
  ``handle_verification_response_batch`` signature check per tick
  (which the Schnorr back-end collapses into a single randomized
  multi-scalar multiplication — the crypto-layer batch surface
  ``SignatureScheme.verify_batch`` reached through the shared
  :class:`~repro.crypto.signatures.VerifyTableCache`), store writes are
  serialised on the batcher thread, and the remaining challenge ops fan
  out to a worker pool.  The frontend exposes the
  :class:`~repro.protocols.server.AuthenticationServer`
  handler surface, so runners and simulators drive either one unchanged.
  ``benchmarks/test_bench_service.py`` holds its speedup floor over the
  serial loop; ``bench/`` measures it serving over TCP.

Import discipline (enforced by the package graph, relied on by tests):
**protocols may not import service** — the protocol layer stays complete
and importable on its own, and a bare ``AuthenticationServer`` must never
need the concurrent machinery.  **Service imports protocols and engine**
freely; it sits above both.  The only references the lower layers hold
are lazy, call-time imports in convenience constructors
(``WorkloadSimulator.with_frontend``), mirroring how the protocol layer
reaches the engine.
"""

from repro.service.frontend import FrontendStats, ServiceFrontend

__all__ = [
    "FrontendStats",
    "ServiceFrontend",
]
