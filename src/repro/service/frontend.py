"""The concurrent service frontend.

:class:`ServiceFrontend` is the server's concurrent front door: it
accepts protocol requests from many client threads, applies admission
control (a bounded queue — callers feel backpressure instead of the
server hoarding unbounded work), and schedules the work the way a
single-process deployment wants it scheduled:

* **identification probes are micro-batched** — concurrent
  ``IdentificationRequest``\\ s that arrive within one batching window are
  coalesced and answered through a single
  :meth:`~repro.protocols.server.AuthenticationServer.handle_identification_batch`
  call, so the sketch-scan cost the engine's batch kernel amortises so
  well is actually amortised under live traffic (one LUT pass per tick
  instead of one full scan per request);
* **store writes are serialised** — enrollments, rotates, and revokes
  run on the batcher thread, so the record store and sketch index never
  see concurrent mutation and need no locks of their own;
* **challenge responses fan out** — signature verifications (and
  verification-mode lookups) go to a worker pool sharing the server's
  lock-safe :class:`~repro.crypto.signatures.VerifyTableCache`, so every
  worker verifies against the same warm per-user tables;
* **verification responses are micro-batched too** — concurrent
  ``VerificationResponse``\\ s coalesce under the same window+linger
  policy and are answered through one
  :meth:`~repro.protocols.server.AuthenticationServer.handle_verification_response_batch`
  call on the pool, so the Schnorr back-end's randomized batch
  verification (one multi-scalar multiplication for the whole burst)
  sees real bursts — the per-signature EC floor gets the same
  amortisation treatment the sketch scan already enjoys.

The frontend exposes *the same blocking handler surface* as
:class:`~repro.protocols.server.AuthenticationServer` (``handle_enrollment``,
``handle_identification_request``, …), each call submitting to the
pipeline and waiting for its result.  That duck-type equivalence is the
point: :mod:`repro.protocols.runners` and the workload simulator drive a
frontend exactly as they drive a bare server, so the serial and
concurrent paths share one protocol code path and can be compared
apples-to-apples (``repro service-bench`` does exactly that).

The O(N) baseline protocol (Fig. 2) is deliberately *not* queued: it
ships the whole database and exists for comparison benchmarks, not
serving.  Its two handlers delegate straight to the wrapped server.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import faults, obs
from repro.exceptions import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadError,
    ServiceRestartingError,
)
from repro.service import deadlines
from repro.protocols.messages import (
    BaselineChallengeBatch,
    BaselineIdentificationRequest,
    BaselineResponseBatch,
    EnrollmentAck,
    EnrollmentSubmission,
    IdentificationChallenge,
    IdentificationDecline,
    IdentificationOutcome,
    IdentificationRequest,
    IdentificationResponse,
    ReplicateRecords,
    ReplicateSubscribe,
    RevokeAck,
    RevokeRequest,
    RotateAck,
    RotateRequest,
    VerificationChallenge,
    VerificationOutcome,
    VerificationRequest,
    VerificationResponse,
)
from repro.protocols.server import AuthenticationServer

#: Queue sentinel telling the batcher thread to drain out.
_STOP = object()

#: Op kinds the batcher hands to the verify worker pool (everything that
#: only reads the record store and pops/opens sessions).
_POOLED_HANDLERS = {
    "respond": "handle_identification_response",
    "decline": "handle_identification_decline",
    "verify-request": "handle_verification_request",
    "verify-response": "handle_verification_response",
}

#: Op kinds the batcher coalesces under the window+linger policy.
_COALESCED = ("identify", "verify-response")

#: Op kinds that mutate the record store and sketch index — they run on
#: the batcher thread itself, never the pool, so the store needs no
#: locks of its own.
_MUTATING_HANDLERS = {
    "enroll": "handle_enrollment",
    "rotate": "handle_rotate",
    "revoke": "handle_revoke",
}

#: The degraded (serial) path's kind -> server handler map: everything
#: the pipeline would have routed, minus batching.
_SERIAL_HANDLERS = {
    "identify": "handle_identification_request",
    **_MUTATING_HANDLERS,
    **_POOLED_HANDLERS,
}


@dataclass
class _Op:
    """One queued request: kind tag, wire message, completion future.

    ``trace`` is the request's trace id (bound to whichever thread ends
    up running its handler, so spans recorded downstream land on the
    right request even though a batch tick fans in many ids);
    ``enqueued_at`` / ``dequeued_at`` are ``perf_counter`` marks from
    which the queue-wait and batch-wait spans are derived.
    ``deadline_at`` is the request's absolute ``time.monotonic()``
    deadline (``None`` = no deadline): once it passes, the op is shed
    with :class:`~repro.exceptions.DeadlineExceededError` instead of
    being served — nobody is waiting for the answer.
    """

    kind: str
    payload: object
    future: Future = field(default_factory=Future)
    trace: bytes | None = None
    enqueued_at: float = 0.0
    dequeued_at: float = 0.0
    deadline_at: float | None = None


@dataclass(frozen=True)
class FrontendStats:
    """Lifetime counters for one frontend instance.

    ``identify_batches`` counts micro-batched search calls;
    ``identify_probes / identify_batches`` is the realised coalescing
    factor — the closer it sits to the concurrent client count, the more
    scan cost the batch kernel is amortising.  ``verify_batches`` /
    ``verify_ops`` are the same pair for the verification-response path
    (one batched signature check per tick).
    """

    submitted: int
    completed: int
    rejected: int
    identify_probes: int
    identify_batches: int
    max_batch: int
    verify_ops: int = 0
    verify_batches: int = 0
    max_verify_batch: int = 0
    #: Requests shed because their deadline budget elapsed while queued.
    shed_expired: int = 0
    #: Requests shed by queue-age admission control (CoDel-style).
    shed_overload: int = 0

    @property
    def mean_batch(self) -> float:
        """Mean probes per micro-batch (NaN before any batch)."""
        if self.identify_batches == 0:
            return float("nan")
        return self.identify_probes / self.identify_batches

    @property
    def mean_verify_batch(self) -> float:
        """Mean responses per verify micro-batch (NaN before any batch)."""
        if self.verify_batches == 0:
            return float("nan")
        return self.verify_ops / self.verify_batches

    def summary_lines(self) -> list[str]:
        """Human-readable counter summary (one string per line)."""
        lines = [
            f"frontend: {self.completed}/{self.submitted} requests "
            f"completed, {self.rejected} rejected (queue full)",
        ]
        if self.identify_batches:
            lines.append(
                f"identification micro-batches: {self.identify_batches} "
                f"({self.mean_batch:.1f} probes/batch mean, "
                f"{self.max_batch} max)"
            )
        if self.verify_batches:
            lines.append(
                f"verification micro-batches: {self.verify_batches} "
                f"({self.mean_verify_batch:.1f} responses/batch mean, "
                f"{self.max_verify_batch} max)"
            )
        if self.shed_expired or self.shed_overload:
            lines.append(
                f"shed: {self.shed_expired} expired, "
                f"{self.shed_overload} over-capacity"
            )
        return lines


class _LingerController:
    """Online linger policy: steer the coalescing gap by load.

    The static linger is a guess made at construction time; the right
    value depends on two things only measurable live — how expensive a
    batched scan/verify actually is (the amortisation won by waiting)
    and how long requests are already sitting in the queue (the latency
    spent waiting).  The controller tracks both as EWMAs and applies
    AIMD steering per flush:

    * **grow** (additive, bounded) toward half the measured batch
      service time: while a scan is running, arrivals queue anyway, so
      lingering up to that order costs little extra latency and buys a
      bigger amortised batch.  A slow verifier (dsa-1024) therefore
      earns a long linger automatically; a fast one (schnorr) keeps it
      near zero instead of taxing every request 2 ms for nothing.
    * **shrink** (multiplicative) whenever the queue-sojourn EWMA
      exceeds ``latency_target_s`` — under congestion the batch fills
      without waiting, so lingering only adds tail latency.

    The linger never exceeds the batch window, preserving the static
    policy's worst-case bound.
    """

    #: EWMA smoothing for both tracked signals.
    ALPHA = 0.2
    #: Additive growth cap per flush (seconds).
    GROW_STEP_S = 0.001

    def __init__(self, initial_s: float, max_s: float,
                 latency_target_s: float) -> None:
        self.linger_s = min(initial_s, max_s)
        self.max_s = max_s
        self.latency_target_s = latency_target_s
        self.scan_ewma_s = 0.0
        self.sojourn_ewma_s = 0.0
        self.flushes = 0
        self.shrinks = 0

    def observe_sojourn(self, sojourn_s: float) -> None:
        """Feed one dequeued request's queue wait."""
        self.sojourn_ewma_s += self.ALPHA * (sojourn_s - self.sojourn_ewma_s)

    def observe_flush(self, batch_size: int, elapsed_s: float) -> None:
        """Feed one batch flush (size + measured service time) and
        steer the linger for the next tick."""
        self.flushes += 1
        if self.scan_ewma_s == 0.0:
            self.scan_ewma_s = elapsed_s
        else:
            self.scan_ewma_s += self.ALPHA * (elapsed_s - self.scan_ewma_s)
        if self.sojourn_ewma_s > self.latency_target_s:
            self.shrinks += 1
            self.linger_s *= 0.5
            return
        target = min(self.max_s, 0.5 * self.scan_ewma_s)
        if target > self.linger_s:
            self.linger_s = min(target, self.linger_s + self.GROW_STEP_S)
        else:
            # Decay gently toward a shrunken target (service time fell,
            # e.g. the key-table cache warmed up) — no cliff needed.
            self.linger_s += self.ALPHA * (target - self.linger_s)


class ServiceFrontend:
    """Concurrent, micro-batching request pipeline over one server.

    Parameters
    ----------
    server:
        The :class:`~repro.protocols.server.AuthenticationServer` to
        serve through (its handlers are thread-safe; enrollment is the
        exception and is serialised here).
    max_queue:
        Admission-control bound: at most this many requests may be
        queued awaiting the batcher.  Full-queue submits block for
        ``submit_timeout_s`` and then raise
        :class:`~repro.exceptions.ServiceOverloadError`.
    max_batch:
        Cap on probes coalesced into one identification micro-batch.
    batch_window_s / batch_linger_s:
        Coalescing policy.  From the first queued probe, the batcher
        keeps accumulating while probes arrive within ``batch_linger_s``
        of each other, bounded by ``batch_window_s`` total (and by
        ``max_batch``).  The linger gap means a quiet queue flushes
        almost immediately — closed-loop clients that have all submitted
        are not kept waiting for arrivals that cannot come — while the
        window caps worst-case added latency under sustained traffic.
        Non-identification requests are dispatched the moment they are
        dequeued and never wait on the window.
    workers:
        Verify worker-pool size.  More workers than cores does not add
        signature throughput (the big-int math holds the GIL) but keeps
        verifications from queueing behind one slow response.
    submit_timeout_s / result_timeout_s:
        Backpressure and fail-fast bounds.  ``submit_timeout_s`` is how
        long a full-queue submit may block before
        :class:`~repro.exceptions.ServiceOverloadError` — sub-second by
        default, because a caller held for 10 s on a full queue is
        latency spent learning what the server already knew at arrival.
        ``result_timeout_s`` caps how long a blocking handler call waits
        before raising — a wedged pipeline surfaces as a timeout, never
        a hang.
    adaptive:
        Replace the static linger with the online
        :class:`_LingerController` (fed by measured batch service time
        and queue sojourn) and enable queue-age shedding.  Off by
        default so explicitly-tuned policies stand; ``repro serve``
        turns it on.
    latency_target_s:
        The sojourn bound both adaptive mechanisms steer toward
        (defaults to ``batch_window_s``): the linger shrinks while the
        sojourn EWMA exceeds it, and queued requests older than
        ``shed_target_s`` are candidates for shedding.
    shed_target_s / shed_interval_s:
        CoDel-style admission control (adaptive mode, or whenever
        ``shed_target_s`` is set explicitly): once dequeued sojourns
        have stayed above ``shed_target_s`` continuously for
        ``shed_interval_s``, the queue is congested beyond what backlog
        draining can fix, and ops are shed with
        :class:`~repro.exceptions.ServiceOverloadError` carrying an
        honest ``retry_after_ms`` until sojourns recover.  Requests
        whose deadline budget has already elapsed are always shed,
        independent of this policy.
    """

    def __init__(self, server: AuthenticationServer,
                 max_queue: int = 256,
                 max_batch: int = 64,
                 batch_window_s: float = 0.02,
                 batch_linger_s: float = 0.002,
                 workers: int = 4,
                 submit_timeout_s: float = 0.25,
                 result_timeout_s: float = 60.0,
                 max_batcher_restarts: int = 5,
                 adaptive: bool = False,
                 latency_target_s: float | None = None,
                 shed_target_s: float | None = None,
                 shed_interval_s: float = 0.1) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.server = server
        self.max_batch = max_batch
        self.batch_window_s = batch_window_s
        self.batch_linger_s = batch_linger_s
        self.submit_timeout_s = submit_timeout_s
        self.result_timeout_s = result_timeout_s
        self.max_batcher_restarts = max_batcher_restarts
        self.adaptive = adaptive
        self.latency_target_s = (
            batch_window_s if latency_target_s is None else latency_target_s)
        self._controller = _LingerController(
            batch_linger_s, batch_window_s,
            self.latency_target_s) if adaptive else None
        if shed_target_s is None:
            shed_target_s = self.latency_target_s if adaptive else None
        self.shed_target_s = shed_target_s
        self.shed_interval_s = shed_interval_s
        #: Start of the current above-target sojourn streak (CoDel state,
        #: batcher thread only), and the consecutive-shed count within
        #: the congestion episode — successive sheds accelerate
        #: (interval / sqrt(run)) until sojourns recover, CoDel's
        #: control law, so the shed rate can climb to meet whatever
        #: excess the offered load carries.
        self._above_since: float | None = None
        self._shed_run = 0
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._closed = threading.Event()
        # Supervision state: the batcher thread runs under
        # _batcher_main, which restarts _batch_loop on a crash (failing
        # the crashed tick's in-flight ops with a retryable error) and,
        # past max_batcher_restarts, flips the frontend into *degraded*
        # mode — requests bypass the queue and run serially against the
        # wrapped server, so the service limps instead of going dark.
        self._degraded = threading.Event()
        self._serial_lock = threading.Lock()
        self._restarts = 0
        #: Ops dequeued by the current batcher tick but not yet handed
        #: off; only the batcher thread touches this, so its crash
        #: handler can fail them without locking.
        self._current_ops: list[_Op] = []
        # Lifetime counters live on the process-wide metrics registry
        # (one labelled series per frontend instance); the stats()
        # snapshot reads them back through the same instruments.
        instance = obs.registry.next_instance("frontend")
        reg = obs.registry
        self._submitted = reg.counter(
            "repro_frontend_submitted_total",
            "Requests admitted to the pipeline.", labels=instance)
        self._completed = reg.counter(
            "repro_frontend_completed_total",
            "Requests completed successfully.", labels=instance)
        self._rejected = reg.counter(
            "repro_frontend_rejected_total",
            "Requests rejected by admission control (queue full).",
            labels=instance)
        self._identify_probes = reg.counter(
            "repro_frontend_identify_probes_total",
            "Identification probes through the micro-batcher.",
            labels=instance)
        self._identify_batches = reg.counter(
            "repro_frontend_identify_batches_total",
            "Identification micro-batches flushed.", labels=instance)
        self._max_batch_seen = reg.gauge(
            "repro_frontend_max_batch",
            "Largest identification micro-batch seen.", labels=instance)
        self._verify_ops = reg.counter(
            "repro_frontend_verify_ops_total",
            "Verification responses through the micro-batcher.",
            labels=instance)
        self._verify_batches = reg.counter(
            "repro_frontend_verify_batches_total",
            "Verification micro-batches flushed.", labels=instance)
        self._max_verify_batch_seen = reg.gauge(
            "repro_frontend_max_verify_batch",
            "Largest verification micro-batch seen.", labels=instance)
        self._batcher_restarts = reg.counter(
            "repro_frontend_batcher_restarts_total",
            "Supervised restarts of the micro-batcher thread.",
            labels=instance)
        self._shed_expired = reg.counter(
            "repro_frontend_shed_expired_total",
            "Requests shed because their deadline budget elapsed.",
            labels=instance)
        self._shed_overload = reg.counter(
            "repro_frontend_shed_overload_total",
            "Requests shed by queue-age admission control.",
            labels=instance)
        self.queue_wait_seconds = reg.histogram(
            "repro_frontend_queue_wait_seconds",
            "Time requests spent queued before the batcher pulled them.",
            labels=instance)
        self.batch_wait_seconds = reg.histogram(
            "repro_frontend_batch_wait_seconds",
            "Time coalesced requests waited for their batch to flush.",
            labels=instance)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="service-verify")
        self._batcher = threading.Thread(
            target=self._batcher_main, name="service-batcher", daemon=True)
        self._batcher.start()

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "ServiceFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting work, drain in-flight requests, join threads.

        Requests already queued complete normally (FIFO order puts them
        ahead of the stop sentinel); anything racing past the closed
        check fails with :class:`~repro.exceptions.ServiceClosedError`
        rather than hanging its caller.  Idempotent.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        self._queue.put(_STOP)
        self._batcher.join()
        self._pool.shutdown(wait=True)
        # A submit may have raced the closed flag and queued behind the
        # sentinel; fail those futures so no caller waits forever.
        while True:
            try:
                op = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(op, _Op):
                self._fail_closed(op)

    @staticmethod
    def _fail_closed(op: _Op) -> None:
        """Fail a never-dispatched op (no-op if someone else beat us)."""
        try:
            op.future.set_exception(
                ServiceClosedError("frontend closed before dispatch"))
        except Exception:  # noqa: BLE001 — future already resolved elsewhere
            pass

    # -- submission --------------------------------------------------------------

    def _submit(self, kind: str, payload: object) -> Future:
        if self._closed.is_set():
            raise ServiceClosedError("frontend is closed")
        # The frontend is the tracing edge for in-process callers: reuse
        # the caller's bound trace (the network server binds the wire
        # trace id before calling in), else mint one while tracing is on.
        trace = obs.tracer.current()
        if trace is None and obs.tracer.enabled:
            trace = obs.mint_trace_id()
        deadline_at = deadlines.current_deadline()
        if deadline_at is not None and time.monotonic() >= deadline_at:
            # Already out of budget at the door: admitting it only
            # queues work nobody is waiting for.
            self._shed_expired.inc()
            err = DeadlineExceededError(
                "deadline budget already elapsed at submission")
            err.retry_after_ms = self.retry_after_ms()
            raise err
        op = _Op(kind=kind, payload=payload, trace=trace,
                 enqueued_at=time.perf_counter(), deadline_at=deadline_at)
        try:
            self._queue.put_nowait(op)
        except queue.Full:
            self._blocking_put(op, deadline_at)
        if self._closed.is_set() and not self._batcher.is_alive():
            # Raced close(): the op may have landed after the shutdown
            # drain, with no consumer left.  Fail it here (idempotent —
            # the drain may have caught it first) so the caller gets
            # ServiceClosedError now, not a timeout later.
            self._fail_closed(op)
        self._submitted.inc()
        return op.future

    def _blocking_put(self, op: _Op, deadline_at: float | None) -> None:
        """Full-queue slow path: block briefly, or fail fast.

        When the submitter carries a deadline smaller than the backoff
        hint we would attach to an overload reply, blocking cannot end
        well — the wait either exceeds the budget or leaves too little
        of it to serve the request.  Reject immediately with the hint so
        the client spends its remaining budget elsewhere.  Otherwise
        block up to ``submit_timeout_s``, never past the deadline.
        """
        hint_ms = self.retry_after_ms()
        wait_s = self.submit_timeout_s
        if deadline_at is not None:
            budget_s = deadline_at - time.monotonic()
            if budget_s <= hint_ms / 1000.0:
                self._rejected.inc()
                exc = ServiceOverloadError(
                    f"request queue full ({self._queue.maxsize}) and "
                    f"deadline budget ({budget_s * 1000:.0f}ms) below the "
                    f"backoff hint ({hint_ms}ms)")
                exc.retry_after_ms = hint_ms
                raise exc
            wait_s = min(wait_s, budget_s)
        try:
            self._queue.put(op, timeout=wait_s)
        except queue.Full:
            self._rejected.inc()
            exc = ServiceOverloadError(
                f"request queue full ({self._queue.maxsize}) for "
                f"{wait_s:.3g}s")
            # Backoff hint, proportional to current congestion; the
            # network server copies it onto the overload ErrorReply.
            exc.retry_after_ms = self.retry_after_ms()
            raise exc from None

    def _call(self, kind: str, payload: object):
        if self._degraded.is_set() or (
                not self._batcher.is_alive() and not self._closed.is_set()):
            # The batcher gave up (or died faster than its supervisor
            # could notice): serve serially rather than queueing work no
            # consumer will drain.
            return self._serial_call(kind, payload)
        return self._submit(kind, payload).result(self.result_timeout_s)

    def _serial_call(self, kind: str, payload: object):
        """Degraded path: run the handler directly, one at a time.

        No micro-batching, no worker pool — just the wrapped server
        under one lock (enrollment mutates the store, so the serial path
        keeps the no-concurrent-mutation guarantee the batcher gave).
        """
        if self._closed.is_set():
            raise ServiceClosedError("frontend is closed")
        if deadlines.expired():
            # The serial path is slow by construction; honoring elapsed
            # deadlines matters *more* here, not less.
            self._shed_expired.inc()
            err = DeadlineExceededError(
                "deadline budget elapsed before the degraded serial path "
                "could serve the request")
            err.retry_after_ms = self.retry_after_ms()
            raise err
        handler = getattr(self.server, _SERIAL_HANDLERS[kind])
        self._submitted.inc()
        with self._serial_lock:
            result = handler(payload)
        self._completed.inc()
        return result

    @property
    def current_linger_s(self) -> float:
        """The linger in force this tick: the controller's value under
        adaptive mode, the constructor's otherwise."""
        if self._controller is not None:
            return self._controller.linger_s
        return self.batch_linger_s

    def retry_after_ms(self) -> int:
        """Backoff hint for overloaded/restarting replies (10..2000 ms),
        scaled by queue depth times the live batch linger (roughly how
        long the backlog takes to drain one op deep).  The degraded
        serial path uses the same formula — its queue depth is zero, so
        the hint honestly floors at 10 ms."""
        depth = self._queue.qsize()
        hint = int(1000 * max(self.current_linger_s, 0.001) * max(depth, 1))
        return max(10, min(hint, 2000))

    # -- the server handler surface (blocking, drop-in) --------------------------

    def handle_enrollment(
        self, submission: EnrollmentSubmission,
    ) -> EnrollmentAck:
        """Enroll through the pipeline (serialised on the batcher)."""
        return self._call("enroll", submission)

    def handle_rotate(self, request: RotateRequest) -> RotateAck:
        """Rotate/re-enroll through the pipeline (serialised on the
        batcher, exactly like enrollment — it mutates the store)."""
        return self._call("rotate", request)

    def handle_revoke(self, request: RevokeRequest) -> RevokeAck:
        """Revoke through the pipeline (serialised on the batcher)."""
        return self._call("revoke", request)

    def handle_identification_request(
        self, request: IdentificationRequest,
    ) -> IdentificationChallenge | IdentificationOutcome:
        """Identify through the pipeline (micro-batched sketch search)."""
        return self._call("identify", request)

    def handle_identification_response(
        self, response: IdentificationResponse,
    ) -> IdentificationChallenge | IdentificationOutcome:
        """Signature check on the verify worker pool."""
        return self._call("respond", response)

    def handle_identification_decline(
        self, decline: IdentificationDecline,
    ) -> IdentificationChallenge | IdentificationOutcome:
        """Candidate fall-through on the verify worker pool."""
        return self._call("decline", decline)

    def handle_verification_request(
        self, request: VerificationRequest,
    ) -> VerificationChallenge | VerificationOutcome:
        """Claimed-identity lookup + challenge on the worker pool."""
        return self._call("verify-request", request)

    def handle_verification_response(
        self, response: VerificationResponse,
    ) -> VerificationOutcome:
        """Verification-mode signature check (micro-batched: concurrent
        responses coalesce into one batched verify on the pool)."""
        return self._call("verify-response", response)

    def handle_baseline_request(
        self, request: BaselineIdentificationRequest,
    ) -> BaselineChallengeBatch:
        """O(N) baseline, pass-through (a benchmark path, not a serving
        path — it ships the whole database and is not queued)."""
        return self.server.handle_baseline_request(request)

    def handle_baseline_response(
        self, response: BaselineResponseBatch,
    ) -> IdentificationOutcome:
        """O(N) baseline second leg, pass-through like the first."""
        return self.server.handle_baseline_response(response)

    # -- delegation (so the frontend is a drop-in server) ------------------------

    @property
    def params(self):
        """The wrapped server's system parameters."""
        return self.server.params

    @property
    def scheme(self):
        """The wrapped server's signature scheme."""
        return self.server.scheme

    @property
    def store(self):
        """The wrapped server's record store."""
        return self.server.store

    def audit_log(self, kind: str | None = None):
        """The wrapped server's audit trail (optionally filtered)."""
        return self.server.audit_log(kind)

    def engine_stats(self):
        """The wrapped server's engine counters."""
        return self.server.engine_stats()

    def outstanding_sessions(self) -> int:
        """Outstanding challenge count on the wrapped server."""
        return self.server.outstanding_sessions()

    def handle_replicate_subscribe(
        self, request: ReplicateSubscribe,
    ) -> ReplicateRecords:
        """Journal shipping, pass-through (reads the journal file — no
        store mutation, so it never queues behind the batcher)."""
        return self.server.handle_replicate_subscribe(request)

    def health_snapshot(self) -> dict:
        """Liveness/readiness snapshot for the health admin frame.

        Extends the wrapped server's snapshot with pipeline state.  A
        *degraded* frontend is still ``ready`` — it is limping through
        the serial path, not refusing work — but the flag (plus its
        shed/restart counters and live ``retry_after_ms`` hint) crosses
        the :class:`~repro.protocols.messages.HealthReply` so failover
        clients can *prefer* a healthy standby over a degraded primary.
        """
        snapshot = self.server.health_snapshot()
        closed = self._closed.is_set()
        snapshot.update(
            queue_depth=self._queue.qsize(),
            queue_capacity=self._queue.maxsize,
            overloaded=self._queue.full(),
            degraded=self._degraded.is_set(),
            batcher_restarts=self._restarts,
            shed_expired=self._shed_expired.value,
            shed_overload=self._shed_overload.value,
            retry_after_ms=self.retry_after_ms(),
            adaptive=self.adaptive,
            linger_ms=self.current_linger_s * 1000.0,
            closed=closed,
            ready=not (closed or self._queue.full()),
        )
        return snapshot

    # -- the batcher -------------------------------------------------------------

    def _batcher_main(self) -> None:
        """Supervise :meth:`_batch_loop`: restart it when it crashes.

        A crash mid-tick strands whatever ops that tick had dequeued —
        they are failed with a retryable
        :class:`~repro.exceptions.ServiceRestartingError` (carrying a
        backoff hint) so their callers resubmit instead of timing out.
        After ``max_batcher_restarts`` consecutive crashes the frontend
        flips to *degraded* mode: the queue path is abandoned and
        requests run serially against the wrapped server.
        """
        while True:
            try:
                self._batch_loop()
                return  # clean _STOP exit
            except BaseException as exc:  # noqa: BLE001 — supervisor boundary
                stranded, self._current_ops = self._current_ops, []
                for op in stranded:
                    err = ServiceRestartingError(
                        "batcher thread died mid-request "
                        f"({type(exc).__name__}: {exc})")
                    err.retry_after_ms = self.retry_after_ms()
                    try:
                        op.future.set_exception(err)
                    except Exception:  # noqa: BLE001 — already resolved
                        pass
                self._batcher_restarts.inc()
                self._restarts += 1
                if self._closed.is_set():
                    return
                if self._restarts > self.max_batcher_restarts:
                    self._degraded.set()
                    obs.events.emit(
                        "supervision", component="batcher",
                        action="degraded", restarts=self._restarts,
                        error=f"{type(exc).__name__}: {exc}")
                    return
                obs.events.emit(
                    "supervision", component="batcher", action="restart",
                    restarts=self._restarts,
                    error=f"{type(exc).__name__}: {exc}")

    def _batch_loop(self) -> None:
        """Pull requests, coalesce identification probes and verification
        responses (each into its own batch), dispatch everything else."""
        while True:
            op = self._queue.get()
            if op is _STOP:
                return
            self._mark_dequeued(op)
            if self._shed_dequeued(op):
                continue
            self._current_ops = [op]
            faults.fire("frontend.batcher")
            if op.kind not in _COALESCED:
                self._dispatch(op)
                self._current_ops = []
                continue
            # One window collects both coalescable kinds — mixed bursts
            # flush as one batched scan plus one batched verify.
            batches: dict[str, list[_Op]] = {kind: [] for kind in _COALESCED}
            batches[op.kind].append(op)
            deadline = time.monotonic() + self.batch_window_s
            stop = False
            while max(len(b) for b in batches.values()) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    nxt = self._queue.get(
                        timeout=min(self.current_linger_s, remaining))
                except queue.Empty:
                    break  # queue went idle: flush what we have
                if nxt is _STOP:
                    stop = True  # FIFO: everything earlier was dequeued
                    break
                self._mark_dequeued(nxt)
                if self._shed_dequeued(nxt):
                    continue
                self._current_ops.append(nxt)
                if nxt.kind in batches:
                    batches[nxt.kind].append(nxt)
                else:
                    self._dispatch(nxt)  # never held back by the window
            if batches["verify-response"]:
                # Hand the crypto to the pool first, then run the scan on
                # this thread — both batches overlap instead of queueing.
                self._verify_batch(batches["verify-response"])
            if batches["identify"]:
                self._identify_batch(batches["identify"])
            self._current_ops = []
            if stop:
                return

    def _mark_dequeued(self, op: _Op) -> None:
        """Stamp the dequeue time and record the op's queue-wait."""
        op.dequeued_at = time.perf_counter()
        waited = op.dequeued_at - op.enqueued_at
        self.queue_wait_seconds.observe(waited)
        if self._controller is not None:
            self._controller.observe_sojourn(waited)
        obs.tracer.record("queue-wait", waited, trace_id=op.trace,
                          detail=op.kind)

    def _shed_if_expired(self, op: _Op) -> bool:
        """Fail an op whose deadline budget has elapsed (true = shed).

        Serving it anyway would spend a scan or a signature check on an
        answer the client has already abandoned; the typed error crosses
        the wire as ``ErrorReply(code="expired")``.
        """
        if op.deadline_at is None or time.monotonic() < op.deadline_at:
            return False
        self._shed_expired.inc()
        err = DeadlineExceededError("deadline budget elapsed while queued")
        err.retry_after_ms = self.retry_after_ms()
        try:
            op.future.set_exception(err)
        except Exception:  # noqa: BLE001 — future already resolved elsewhere
            pass
        return True

    def _shed_dequeued(self, op: _Op) -> bool:
        """Admission control at dequeue: expired ops always shed;
        under a configured ``shed_target_s``, ops are also shed while
        queue sojourns have stayed above target for a full
        ``shed_interval_s`` (CoDel's persistent-congestion test —
        a lone spike never sheds, a standing queue does)."""
        if self._shed_if_expired(op):
            return True
        if self.shed_target_s is None:
            return False
        now = op.dequeued_at
        sojourn = now - op.enqueued_at
        if sojourn <= self.shed_target_s:
            self._above_since = None
            self._shed_run = 0
            return False
        if self._above_since is None:
            self._above_since = now
        interval = self.shed_interval_s / math.sqrt(self._shed_run) \
            if self._shed_run else self.shed_interval_s
        if now - self._above_since < interval:
            return False
        # Re-arm before shedding: paced sheds, not a backlog drain —
        # draining everything above target would throw away serveable
        # work.  The pace accelerates with the run length (CoDel's
        # 1/sqrt law) so sustained excess is eventually matched, while
        # a lone spike sheds at most one op per interval.
        self._above_since = now
        self._shed_run += 1
        self._shed_overload.inc()
        exc = ServiceOverloadError(
            f"queue sojourn {sojourn * 1000:.0f}ms above the "
            f"{self.shed_target_s * 1000:.0f}ms shed target for "
            f"{self.shed_interval_s * 1000:.0f}ms")
        exc.retry_after_ms = self.retry_after_ms()
        try:
            op.future.set_exception(exc)
        except Exception:  # noqa: BLE001 — future already resolved elsewhere
            pass
        return True

    def _dispatch(self, op: _Op) -> None:
        """Route one non-identification request the moment it arrives."""
        if op.kind in _MUTATING_HANDLERS:
            # Store writes stay on this thread — the one place the
            # record store and sketch index are ever mutated.
            self._complete(op, getattr(self.server,
                                       _MUTATING_HANDLERS[op.kind]))
        else:
            handler = getattr(self.server, _POOLED_HANDLERS[op.kind])
            # Handed to the pool: no longer at risk from a batcher crash.
            self._current_ops = [o for o in self._current_ops if o is not op]
            self._pool.submit(self._complete, op, handler)

    def _identify_batch(self, ops: list[_Op]) -> None:
        """One batched sketch search answers every coalesced probe.

        If the batched call fails (one malformed probe poisons the whole
        ``np.stack``), each probe is retried individually so the error
        lands only on the request that caused it — coalescing must never
        turn one client's garbage into every client's failure.
        """
        # Re-check deadlines after the linger: the window may have eaten
        # the budget's tail, and a scan is the expensive thing to waste.
        ops = [op for op in ops if not self._shed_if_expired(op)]
        if not ops:
            return
        self._identify_probes.inc(len(ops))
        self._identify_batches.inc()
        self._max_batch_seen.track_max(len(ops))
        start = time.perf_counter()
        for op in ops:
            waited = start - op.dequeued_at
            self.batch_wait_seconds.observe(waited)
            obs.tracer.record("batch-wait", waited, trace_id=op.trace,
                              detail=f"batch={len(ops)}")
        try:
            replies = self.server.handle_identification_batch(
                [op.payload for op in ops])
        except Exception:  # noqa: BLE001 — isolate, then fail only the culprit
            for op in ops:
                self._complete(op, self.server.handle_identification_request)
            return
        # The batched scan served every coalesced probe: each request's
        # trace gets the shared tick duration as its "scan" span.
        elapsed = time.perf_counter() - start
        if self._controller is not None:
            self._controller.observe_flush(len(ops), elapsed)
        for op, reply in zip(ops, replies):
            obs.tracer.record("scan", elapsed, trace_id=op.trace,
                              detail=f"batch={len(ops)}")
            op.future.set_result(reply)
        self._completed.inc(len(ops))

    def _verify_batch(self, ops: list[_Op]) -> None:
        """Schedule one batched signature check for coalesced responses."""
        # Shed expired responses before the fan-out — a batched MSM on
        # behalf of a departed client is pure waste.
        doomed = [op for op in ops if self._shed_if_expired(op)]
        if doomed:
            dropped = set(map(id, doomed))
            self._current_ops = [
                o for o in self._current_ops if id(o) not in dropped]
            ops = [op for op in ops if id(op) not in dropped]
        if not ops:
            return
        self._verify_ops.inc(len(ops))
        self._verify_batches.inc()
        self._max_verify_batch_seen.track_max(len(ops))
        # Handed to the pool: no longer at risk from a batcher crash.
        handed = set(map(id, ops))
        self._current_ops = [
            o for o in self._current_ops if id(o) not in handed]
        self._pool.submit(self._run_verify_batch, ops)

    def _run_verify_batch(self, ops: list[_Op]) -> None:
        """One ``handle_verification_response_batch`` answers every op.

        On failure each response is retried individually so the error
        lands only on the request that caused it — safe because the
        batch handler reads every response's fields *before* popping any
        session, so a malformed batchmate cannot have consumed another
        client's challenge.
        """
        start = time.perf_counter()
        for op in ops:
            waited = start - op.dequeued_at
            self.batch_wait_seconds.observe(waited)
            obs.tracer.record("batch-wait", waited, trace_id=op.trace,
                              detail=f"batch={len(ops)}")
        try:
            outcomes = self.server.handle_verification_response_batch(
                [op.payload for op in ops])
        except Exception:  # noqa: BLE001 — isolate, then fail only the culprit
            for op in ops:
                self._complete(op, self.server.handle_verification_response)
            return
        # One batched signature check served every response: each trace
        # gets the shared duration as its "verify" span (the cache's own
        # span recording is trace-bound and the pool thread is unbound,
        # so there is no double count).
        elapsed = time.perf_counter() - start
        if self._controller is not None:
            # Pool-thread write; the controller's fields are plain
            # floats, so a racing batcher read sees old-or-new, never
            # torn state.
            self._controller.observe_flush(len(ops), elapsed)
        for op, outcome in zip(ops, outcomes):
            obs.tracer.record("verify", elapsed, trace_id=op.trace,
                              detail=f"batch={len(ops)}")
            op.future.set_result(outcome)
        self._completed.inc(len(ops))

    def _complete(self, op: _Op, handler) -> None:
        """Run one handler, routing result/exception into the future.

        The op's trace id is bound for the duration, so spans recorded
        inside the handler (engine scan, cached verify) attach to the
        request that caused them even on shared pool threads.
        """
        try:
            with obs.tracer.bind(op.trace):
                op.future.set_result(handler(op.payload))
        except Exception as exc:  # noqa: BLE001 — fail the caller, not the loop
            op.future.set_exception(exc)
            return
        self._completed.inc()

    # -- introspection ------------------------------------------------------------

    def stats(self) -> FrontendStats:
        """Counter snapshot (see :class:`FrontendStats`), read back from
        the registry instruments the pipeline increments."""
        return FrontendStats(
            submitted=self._submitted.value,
            completed=self._completed.value,
            rejected=self._rejected.value,
            identify_probes=self._identify_probes.value,
            identify_batches=self._identify_batches.value,
            max_batch=int(self._max_batch_seen.value),
            verify_ops=self._verify_ops.value,
            verify_batches=self._verify_batches.value,
            max_verify_batch=int(self._max_verify_batch_seen.value),
            shed_expired=self._shed_expired.value,
            shed_overload=self._shed_overload.value,
        )
