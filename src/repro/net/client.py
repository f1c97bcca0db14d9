"""The blocking TCP client and its ``ServerEndpoint`` adapter.

:class:`NetworkClient` is deliberately synchronous: the device side of
this codebase — runners, the workload simulator, the closed-loop bench
clients — is plain threaded Python, and a blocking socket drops into it
without an event loop.  One client is one TCP connection carrying up
to ``window`` requests in flight (one by default: a strict
request/reply stream).  A client is safe to share between threads;
closed-loop load wants either one client per thread or a window as wide
as the threads sharing it, to keep requests concurrent on the server.

:class:`RemoteEndpoint` wraps a client in the ``ServerEndpoint`` duck
type from :mod:`repro.protocols.runners`, so ``run_identification`` and
friends drive a remote server over TCP with the same code path they use
in-process — the end-to-end parity the transport tests assert.

Error mapping: a typed :class:`~repro.protocols.messages.ErrorReply`
frame from the server re-raises client-side as the exception the
in-process stack would have thrown — ``overload`` becomes
:class:`~repro.exceptions.ServiceOverloadError` (the frontend's
backpressure, now end-to-end), ``closed`` becomes
:class:`~repro.exceptions.ServiceClosedError`, ``protocol`` becomes
:class:`~repro.exceptions.ProtocolError`, and anything else surfaces as
:class:`~repro.exceptions.ServiceError`.
"""

from __future__ import annotations

import json
import socket
import threading
from collections import deque
from concurrent.futures import Future

from repro.obs import mint_trace_id
from repro.exceptions import (
    ConnectionLostError,
    DeadlineExceededError,
    ProtocolError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    ServiceRestartingError,
)
from repro.net.framing import (
    DEFAULT_MAX_FRAME,
    PREFIX_BYTES,
    frame_message,
    recv_frame,
)
from repro.protocols.messages import (
    BaselineChallengeBatch,
    BaselineIdentificationRequest,
    BaselineResponseBatch,
    DeadlineEnvelope,
    EnrollmentAck,
    EnrollmentSubmission,
    ErrorReply,
    HealthReply,
    HealthRequest,
    IdentificationChallenge,
    IdentificationDecline,
    IdentificationOutcome,
    IdentificationRequest,
    IdentificationResponse,
    Message,
    RevokeAck,
    RevokeRequest,
    RotateAck,
    RotateRequest,
    StatsReply,
    StatsRequest,
    TracedEnvelope,
    VerificationChallenge,
    VerificationOutcome,
    VerificationRequest,
    VerificationResponse,
)
from repro.protocols.transport import ChannelStats


def _raise_error_reply(reply: ErrorReply) -> None:
    """Re-raise a server error frame as its in-process exception type."""
    if reply.code == "overload":
        exc = ServiceOverloadError(reply.detail)
        exc.retry_after_ms = reply.retry_after_ms()
        raise exc
    if reply.code == "expired":
        # The server shed this request because its deadline budget ran
        # out — a typed reply, so (unlike a client-side timeout) it
        # stays per-request and never poisons the connection.
        err = DeadlineExceededError(reply.detail)
        err.retry_after_ms = reply.retry_after_ms()
        raise err
    if reply.code == "retry":
        exc = ServiceRestartingError(reply.detail)
        exc.retry_after_ms = reply.retry_after_ms()
        raise exc
    if reply.code == "closed":
        raise ServiceClosedError(reply.detail)
    if reply.code == "protocol":
        raise ProtocolError(reply.detail)
    raise ServiceError(f"server error [{reply.code}]: {reply.detail}")


def _map_transport_error(exc: Exception) -> Exception:
    """Classify a failed round trip for the resilience layer.

    Timeouts become :class:`~repro.exceptions.RequestTimeoutError` (still
    a ``TimeoutError``), torn connections become
    :class:`~repro.exceptions.ConnectionLostError` (still a
    ``ProtocolError``) — both transient, so a failover client knows the
    request may be resubmitted.  Anything else passes through unchanged.
    """
    if isinstance(exc, (RequestTimeoutError, ConnectionLostError)):
        return exc
    if isinstance(exc, TimeoutError):
        return RequestTimeoutError(f"request deadline exceeded: {exc}")
    if isinstance(exc, (ProtocolError, OSError)):
        # The only ProtocolError sources mid-exchange are frame-level
        # (connection torn mid-frame / hostile length) — connection-fatal
        # either way, and the exchange never completed.
        return ConnectionLostError(f"connection lost mid-exchange: {exc}")
    return exc


class NetworkClient:
    """One TCP connection speaking length-prefixed messages, with up to
    ``window`` requests in flight.

    Parameters
    ----------
    host / port:
        The :class:`~repro.net.server.NetworkServer` address.
    timeout_s:
        Connect timeout and the default wait for each reply; a server
        that stops answering surfaces as
        :class:`~repro.exceptions.RequestTimeoutError` (a stdlib
        ``TimeoutError``).
    max_frame:
        Per-frame cap, matching the server's.
    window:
        Requests outstanding on the connection at once.  ``1`` is the
        strict request/reply stream; more lets threads sharing the
        client keep one connection busy.

    :meth:`submit` sends a frame and returns a future; a reader thread
    decodes replies as they arrive and — because the server answers in
    request order (windowed in-order pipelining; the framing carries no
    request ids) — resolves the oldest outstanding future.  The next
    :meth:`submit` blocks while ``window`` requests are outstanding,
    which keeps client-side memory bounded and stays inside the
    server's own read-ahead window.  :meth:`request` is the blocking
    submit-wait-map round trip, so ``N`` threads sharing one client
    (e.g. via :class:`RemoteEndpoint` wrappers) drive ``min(N, window)``
    requests in flight.

    Failures are connection-wide: any transport failure (a reply wait
    expiring, a reset, a torn or malformed frame) desynchronises the
    in-order reply stream, so it poisons the connection and fails
    *every* outstanding future with the mapped exception; later requests
    raise :class:`~repro.exceptions.ConnectionLostError` ("spent")
    rather than risk reading a stale reply, and after :meth:`close`
    they raise :class:`~repro.exceptions.ServiceClosedError`.
    Reconnect with a fresh client.  Typed ``ErrorReply`` frames stay
    per-request: they resolve only their own future (raised from
    :meth:`request` as the mapped exception) and leave the stream
    healthy.

    Traffic is accounted per direction in
    :class:`~repro.protocols.transport.ChannelStats` (``to_server`` /
    ``to_device``), the shape the in-process
    :class:`~repro.protocols.transport.DuplexLink` uses, so wire-cost
    comparisons between simulated and real transport line up.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 window: int = 1) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.max_frame = max_frame
        self.timeout_s = timeout_s
        self.window = window
        self.to_server = ChannelStats()
        self.to_device = ChannelStats()
        #: Trace id from the last reply :meth:`request` returned (``None``
        #: when it was bare); set before error frames raise.  Shared
        #: state, so meaningless when threads share the client.
        self.last_trace_id: bytes | None = None
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The reader blocks in recv with no socket deadline: between
        # requests there is legitimately nothing to read, and a reply
        # may legally queue behind window-1 others.  Reply waits are
        # bounded on the futures instead, and the reader is woken by
        # the shutdown in _poison (close() poisons too).
        self._sock.settimeout(None)
        self._slots = threading.BoundedSemaphore(window)
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: deque[Future] = deque()
        self._fatal: Exception | None = None
        self._closing = False
        self._reader = threading.Thread(
            target=self._read_loop, name="net-client-reader", daemon=True)
        self._reader.start()

    @property
    def total_bytes(self) -> int:
        """Wire bytes moved in both directions (frame prefixes included)."""
        return self.to_server.wire_bytes + self.to_device.wire_bytes

    # -- reader side --------------------------------------------------------

    def _read_loop(self) -> None:
        """Decode replies as they arrive; FIFO-match them to futures."""
        try:
            while True:
                payload = recv_frame(self._sock, self.max_frame)
                if payload is None:
                    raise ConnectionLostError(
                        "server closed the connection")
                self.to_device.record(len(payload) + PREFIX_BYTES, 0.0)
                reply = Message.decode(payload)
                with self._pending_lock:
                    future = (self._pending.popleft()
                              if self._pending else None)
                if future is None:
                    raise ProtocolError(
                        "server sent a reply with no request outstanding")
                future.set_result(reply)
        except Exception as exc:  # noqa: BLE001 — any failure poisons
            # After close() this is a no-op: close poisoned first.
            self._poison(_map_transport_error(exc))

    def _poison(self, exc: Exception) -> None:
        """Mark the connection spent and fail every outstanding future."""
        with self._pending_lock:
            if self._fatal is None:
                self._fatal = exc
            orphans, self._pending = list(self._pending), deque()
        for future in orphans:
            if not future.done():
                future.set_exception(exc)
        try:
            # recv does not observe a bare close of its own fd; shutdown
            # is what wakes a reader blocked on a silent server.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def _spent_error(self) -> Exception:
        if self._closing:
            return ServiceClosedError("client connection is closed")
        return ConnectionLostError(f"connection is spent: {self._fatal}")

    # -- sender side --------------------------------------------------------

    def submit(self, message: Message,
               trace_id: bytes | None = None,
               budget_ms: int | None = None) -> Future:
        """Send ``message`` and return a future for its decoded reply.

        Blocks while ``window`` requests are already outstanding.  The
        future resolves to the raw reply message (envelopes and error
        frames included); :meth:`request` is the resolve-and-map wrapper.

        ``budget_ms``, when given, *propagates* a deadline to the server
        in a :class:`~repro.protocols.messages.DeadlineEnvelope`: the
        server stamps the budget on the queued op and sheds it with
        ``ErrorReply(code="expired")`` once it elapses, instead of
        computing an answer nobody will read.  Requests without a
        budget stay byte-identical to the pre-deadline wire.

        ``trace_id``, when given, wraps the request in a
        :class:`~repro.protocols.messages.TracedEnvelope`; the server
        echoes the id on its (enveloped) reply.
        """
        if budget_ms is not None:
            message = DeadlineEnvelope.wrap(message, budget_ms)
        if trace_id is not None:
            message = TracedEnvelope.wrap(message, trace_id)
        # Framing refusals (over-cap encodings) happen before any byte
        # hits the wire and leave the connection usable.
        frame = frame_message(message, self.max_frame)
        self._slots.acquire()
        future: Future = Future()
        try:
            # Append and send under one lock: the reply stream matches
            # futures by arrival order, so pending order must equal the
            # order frames hit the wire.
            with self._send_lock:
                if self._fatal is not None:
                    raise self._spent_error()
                with self._pending_lock:
                    self._pending.append(future)
                try:
                    self._sock.sendall(frame)
                except Exception as exc:
                    mapped = _map_transport_error(exc)
                    self._poison(mapped)
                    raise mapped from exc
                self.to_server.record(len(frame), 0.0)
        except BaseException:
            self._slots.release()
            raise
        future.add_done_callback(lambda _f: self._slots.release())
        return future

    def request(self, message: Message,
                trace_id: bytes | None = None,
                deadline_s: float | None = None,
                budget_ms: int | None = None) -> Message:
        """One round trip: submit ``message``, return the decoded reply.

        Waits ``deadline_s`` for this request only (health probes want
        a short fuse while protocol requests keep the long one), else
        the connection's ``timeout_s``.  An expired wait poisons the
        connection: with in-order matching, an abandoned exchange would
        desynchronise every later reply.  ``budget_ms`` (see
        :meth:`submit`) therefore never shortens the wait — the
        server's typed ``expired`` reply keeps its place in the stream,
        fails only this request (raised here as
        :class:`~repro.exceptions.DeadlineExceededError`), and may
        legally queue behind the replies of earlier requests.

        A traced reply is unwrapped and its id exposed as
        :attr:`last_trace_id` — including on error frames, *before* the
        mapped exception is raised, so a failed request stays
        attributable to its trace.  Raises the mapped exception for a
        typed error frame, and :class:`~repro.exceptions.ProtocolError`
        for a malformed reply or a connection dropped mid-exchange.
        """
        future = self.submit(message, trace_id=trace_id,
                             budget_ms=budget_ms)
        timeout = self.timeout_s if deadline_s is None else deadline_s
        try:
            reply = future.result(timeout)
        except TimeoutError as exc:
            if not future.done():
                mapped = RequestTimeoutError(
                    f"request deadline exceeded after {timeout}s "
                    f"({len(self._pending)} requests in flight)")
                self._poison(mapped)
                raise mapped from exc
            # A stored (already mapped) timeout, or a reply that landed
            # just as the wait expired: either way the future decides.
            reply = future.result()
        if isinstance(reply, TracedEnvelope):
            self.last_trace_id = reply.trace_id
            reply = reply.inner()
        else:
            self.last_trace_id = None
        if isinstance(reply, ErrorReply):
            _raise_error_reply(reply)
        return reply

    def stats(self, query: str = "all", limit: int = 0) -> dict:
        """Scrape the server's observability snapshot as a parsed dict.

        One :class:`~repro.protocols.messages.StatsRequest` round trip;
        the reply's JSON payload is parsed and returned (``metrics`` /
        ``traces`` / ``server`` / ``endpoint`` keys per the query).
        """
        reply = self.request(StatsRequest.make(query, limit))
        if not isinstance(reply, StatsReply):
            raise ProtocolError(
                f"expected StatsReply, server sent {type(reply).__name__}")
        try:
            return json.loads(reply.payload)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed stats payload: {exc}") from exc

    def health(self, deadline_s: float | None = None) -> dict:
        """One liveness/readiness probe as a parsed dict.

        A :class:`~repro.protocols.messages.HealthRequest` round trip,
        answered on the server's accept-loop thread — it reflects queue
        depth, overload, degradation, and replication lag even while the
        endpoint itself is wedged.  ``deadline_s`` defaults to the
        connection timeout; failover probes pass a short fuse.
        """
        reply = self.request(HealthRequest(probe=b""), deadline_s=deadline_s)
        if not isinstance(reply, HealthReply):
            raise ProtocolError(
                f"expected HealthReply, server sent {type(reply).__name__}")
        try:
            return json.loads(reply.payload)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed health payload: {exc}") from exc

    def close(self) -> None:
        """Close the connection and fail any outstanding futures.
        Idempotent."""
        self._closing = True
        self._poison(ServiceClosedError("client connection is closed"))
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "NetworkClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteEndpoint:
    """A ``ServerEndpoint`` whose handlers live across a TCP connection.

    Each ``handle_*`` method sends its request through the wrapped
    :class:`NetworkClient` and type-checks the reply against what the
    in-process handler would have returned, raising
    :class:`~repro.exceptions.ProtocolError` on anything else — a
    remote server cannot smuggle an unexpected message past the runner
    layer.  Use :meth:`connect` to build the adapter and its connection
    in one step (closing the endpoint then closes the connection).
    """

    def __init__(self, client: NetworkClient,
                 owns_client: bool = False, trace: bool = False,
                 deadline_ms: int | None = None) -> None:
        self._client = client
        self._owns_client = owns_client
        self._trace = trace
        self._trace_id: bytes | None = None
        #: Per-request deadline budget sent on every leg (``None`` =
        #: no deadline, byte-identical wire).  Mutable: benches flip it
        #: between requests to mix deadline classes on one connection.
        self.deadline_ms = deadline_ms

    @classmethod
    def connect(cls, host: str, port: int, timeout_s: float = 30.0,
                max_frame: int = DEFAULT_MAX_FRAME,
                trace: bool = False, pipeline: int = 0,
                deadline_ms: int | None = None) -> "RemoteEndpoint":
        """Open a connection to ``host:port`` and wrap it as an endpoint.

        ``trace=True`` turns on client-edge request tracing: each
        protocol *run* (enrollment, an identification exchange, a
        verification exchange) is minted one trace id, sent in a wire
        envelope on every leg, and echoed by the server — so a full
        multi-round-trip run correlates under a single id.  Off by
        default: envelopes add wire bytes, so untraced byte accounting
        stays identical to the pre-tracing protocol.

        ``pipeline=N`` opens the connection with an ``N``-request
        window (:class:`NetworkClient` ``window``), so several endpoints
        sharing the one client (or threads sharing this endpoint's
        client) keep the connection saturated.  ``0`` or ``1`` means
        one request at a time.

        ``deadline_ms`` attaches a per-leg deadline budget to every
        request this endpoint sends (each protocol leg gets the full
        budget — the paper's exchanges are at most three legs, so the
        run-level bound is a small multiple).
        """
        client = NetworkClient(host, port, timeout_s=timeout_s,
                               max_frame=max_frame,
                               window=max(1, pipeline))
        return cls(client, owns_client=True, trace=trace,
                   deadline_ms=deadline_ms)

    @property
    def trace_id(self) -> bytes | None:
        """The current protocol run's trace id (``None`` untraced)."""
        return self._trace_id

    def _trace_for(self, fresh: bool) -> bytes | None:
        """The id to send: fresh per run start, reused on continuations."""
        if not self._trace:
            return None
        if fresh or self._trace_id is None:
            self._trace_id = mint_trace_id()
        return self._trace_id

    @property
    def client(self) -> NetworkClient:
        """The underlying connection (for wire accounting)."""
        return self._client

    def close(self) -> None:
        """Close the underlying connection if this endpoint owns it."""
        if self._owns_client:
            self._client.close()

    def __enter__(self) -> "RemoteEndpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _expect(self, message: Message, expected: tuple[type, ...],
                fresh_trace: bool = False):
        reply = self._client.request(
            message, trace_id=self._trace_for(fresh_trace),
            budget_ms=self.deadline_ms)
        if not isinstance(reply, expected):
            names = " | ".join(t.__name__ for t in expected)
            raise ProtocolError(
                f"expected {names}, server sent {type(reply).__name__}"
            )
        return reply

    # -- the ServerEndpoint surface -----------------------------------------

    def handle_enrollment(
        self, submission: EnrollmentSubmission,
    ) -> EnrollmentAck:
        """Enroll over the wire (Fig. 1's server leg, remote)."""
        return self._expect(submission, (EnrollmentAck,),
                            fresh_trace=True)

    def handle_rotate(self, request: RotateRequest) -> RotateAck:
        """Rotate/re-enroll a sketch version over the wire."""
        return self._expect(request, (RotateAck,), fresh_trace=True)

    def handle_revoke(self, request: RevokeRequest) -> RevokeAck:
        """Revoke sketch version(s) over the wire (idempotent)."""
        return self._expect(request, (RevokeAck,), fresh_trace=True)

    def handle_identification_request(
        self, request: IdentificationRequest,
    ) -> IdentificationChallenge | IdentificationOutcome:
        """Sketch search over the wire; challenge or ``⊥`` comes back."""
        return self._expect(
            request, (IdentificationChallenge, IdentificationOutcome),
            fresh_trace=True)

    def handle_identification_response(
        self, response: IdentificationResponse,
    ) -> IdentificationChallenge | IdentificationOutcome:
        """Challenge response over the wire; outcome or next candidate."""
        return self._expect(
            response, (IdentificationChallenge, IdentificationOutcome))

    def handle_identification_decline(
        self, decline: IdentificationDecline,
    ) -> IdentificationChallenge | IdentificationOutcome:
        """Candidate decline over the wire; outcome or next candidate."""
        return self._expect(
            decline, (IdentificationChallenge, IdentificationOutcome))

    def handle_verification_request(
        self, request: VerificationRequest,
    ) -> VerificationChallenge | VerificationOutcome:
        """Claimed-identity lookup over the wire."""
        return self._expect(
            request, (VerificationChallenge, VerificationOutcome),
            fresh_trace=True)

    def handle_verification_response(
        self, response: VerificationResponse,
    ) -> VerificationOutcome:
        """Verification-mode challenge response over the wire."""
        return self._expect(response, (VerificationOutcome,))

    def handle_baseline_request(
        self, request: BaselineIdentificationRequest,
    ) -> BaselineChallengeBatch:
        """The O(N) baseline's first leg over the wire (bench use)."""
        return self._expect(request, (BaselineChallengeBatch,),
                            fresh_trace=True)

    def handle_baseline_response(
        self, response: BaselineResponseBatch,
    ) -> IdentificationOutcome:
        """The O(N) baseline's second leg over the wire (bench use)."""
        return self._expect(response, (IdentificationOutcome,))
