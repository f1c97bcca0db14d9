"""The asyncio TCP server.

:class:`NetworkServer` fronts any ``ServerEndpoint`` — the duck type
:mod:`repro.protocols.runners` defines — so one transport serves both
the plain :class:`~repro.protocols.server.AuthenticationServer` and the
concurrent :class:`~repro.service.frontend.ServiceFrontend`.  Request
routing is by message type: each decoded frame dispatches to the handler
the in-process stack would have called, and replies go back **in request
order** on the connection.  A serial client (one request, then its
reply) sees the strict request/reply contract unchanged; a pipelined
client may keep a bounded window of requests in flight on one
connection — the server reads ahead, runs their handlers concurrently
on the pool, and re-sequences the replies, so the framing needs no
request ids (windowed in-order pipelining).

Design points:

* **blocking handlers never run on the event loop.**  Both endpoints
  block (the server computes, the frontend waits on its pipeline
  future), so every handler call is pushed to a bounded thread pool via
  ``run_in_executor`` — slow signature math on one connection cannot
  stall another connection's reads, and the frontend's micro-batcher
  still sees *concurrent* submissions to coalesce;
* **a bad frame never kills the loop.**  Malformed bytes surface as
  :class:`~repro.exceptions.ProtocolError` (the decode layer's
  hardened contract), which the server answers with a typed
  :class:`~repro.protocols.messages.ErrorReply` frame before dropping
  only that connection; handler-level failures (overload, closed,
  unexpected) answer with their own error codes and keep the
  connection.  The accept loop itself never sees an exception;
* **backpressure crosses the wire.**  A full frontend queue raises
  :class:`~repro.exceptions.ServiceOverloadError` in the handler
  thread; the connection answers ``ErrorReply(code="overload")`` and
  the client re-raises the same exception type — the PR-3 admission
  story, end-to-end;
* **traffic is accounted per connection** in the same
  :class:`~repro.protocols.transport.ChannelStats` shape the simulated
  transport uses (real wire bytes including the frame prefix; the
  simulated-latency field stays zero because network time here is
  real), aggregated across closed connections for the server totals.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from repro import faults, obs
from repro.exceptions import (
    DeadlineExceededError,
    ProtocolError,
    ServiceClosedError,
    ServiceOverloadError,
    TransientError,
)
from repro.net.framing import (
    DEFAULT_MAX_FRAME,
    PREFIX_BYTES,
    frame_buffers,
    read_frame,
)
from repro.protocols.messages import (
    BaselineIdentificationRequest,
    BaselineResponseBatch,
    DeadlineEnvelope,
    EnrollmentSubmission,
    ErrorReply,
    HealthReply,
    HealthRequest,
    IdentificationDecline,
    IdentificationRequest,
    IdentificationResponse,
    Message,
    ReplicateSubscribe,
    RevokeRequest,
    RotateRequest,
    StatsReply,
    StatsRequest,
    TracedEnvelope,
    VerificationRequest,
    VerificationResponse,
)
from repro.protocols.transport import ChannelStats
from repro.service import deadlines

#: Request message type -> the ServerEndpoint handler that answers it.
#: Reply-direction messages are deliberately absent: a client sending a
#: server-to-device message is a protocol violation, not a dispatch.
REQUEST_HANDLERS: dict[type, str] = {
    EnrollmentSubmission: "handle_enrollment",
    IdentificationRequest: "handle_identification_request",
    IdentificationResponse: "handle_identification_response",
    IdentificationDecline: "handle_identification_decline",
    VerificationRequest: "handle_verification_request",
    VerificationResponse: "handle_verification_response",
    BaselineIdentificationRequest: "handle_baseline_request",
    BaselineResponseBatch: "handle_baseline_response",
    ReplicateSubscribe: "handle_replicate_subscribe",
    RotateRequest: "handle_rotate",
    RevokeRequest: "handle_revoke",
}


@dataclass
class ConnectionStats:
    """Per-connection wire accounting, one counter set per direction.

    The same shape :class:`~repro.protocols.transport.DuplexLink`
    exposes for the simulated wire, so byte-for-byte comparisons between
    in-process and TCP runs are direct.  ``max_frame_bytes`` is the
    largest single frame seen in either direction — a per-connection
    *peak*, so aggregations keep the maximum rather than a sum.
    """

    peer: str
    to_server: ChannelStats = field(default_factory=ChannelStats)
    to_device: ChannelStats = field(default_factory=ChannelStats)
    max_frame_bytes: int = 0

    def record_frame(self, direction: ChannelStats, n_bytes: int) -> None:
        """Account one frame to ``direction`` and track the peak size."""
        direction.record(n_bytes, 0.0)
        if n_bytes > self.max_frame_bytes:
            self.max_frame_bytes = n_bytes

    @property
    def total_bytes(self) -> int:
        """Wire bytes moved in both directions (frame prefixes included)."""
        return self.to_server.wire_bytes + self.to_device.wire_bytes

    @property
    def total_messages(self) -> int:
        """Frames moved in both directions."""
        return self.to_server.messages + self.to_device.messages


@dataclass(frozen=True)
class NetServerStats:
    """Lifecycle snapshot for one :class:`NetworkServer`.

    Separates *clean* closes (the client finished its conversation and
    sent EOF between frames) from *dropped* connections (reset mid-
    exchange, torn down after a framing violation, or cancelled by
    server shutdown), and carries the peaks a totals-only aggregation
    loses: the most connections ever open at once and the largest
    single frame served.
    """

    connections_served: int
    open_connections: int
    peak_open_connections: int
    clean_closes: int
    dropped_connections: int
    max_frame_bytes: int

    def as_dict(self) -> dict[str, int]:
        """The snapshot as a plain dict (JSON-ready)."""
        return asdict(self)

    def __getitem__(self, key: str) -> int:
        """Dict-style access, matching the other stats snapshots."""
        if key not in self.__dataclass_fields__:
            raise KeyError(key)
        return getattr(self, key)


class NetworkServer:
    """Serve a ``ServerEndpoint`` over asyncio TCP.

    The event loop runs on a dedicated background thread so the server
    composes with the rest of the (threaded, blocking) stack: tests,
    benches, and the CLI call :meth:`start` / :meth:`close` from
    ordinary synchronous code, or use the instance as a context
    manager.

    Parameters
    ----------
    endpoint:
        Any object with the ``ServerEndpoint`` handler surface.
    host / port:
        Bind address; port 0 picks an ephemeral port (the bound address
        is returned by :meth:`start` and kept in :attr:`address`).
    max_frame:
        Per-frame byte cap, enforced on read and write.
    handler_threads:
        Bound on concurrently executing handler calls.  With the
        service frontend behind it this should be at least the expected
        concurrent client count, or the executor queue becomes an
        unaccounted admission stage in front of the frontend's.
    owns_endpoint:
        When true, :meth:`close` also calls ``endpoint.close()`` (if it
        has one) after the transport is down — handy for benches that
        build a frontend just for one server.
    pipeline_window:
        Most requests one connection may have in flight at once (reads
        ahead of the oldest unanswered request).  When the window is
        full the server simply stops reading that connection, so
        backpressure reaches a runaway pipelined client as TCP flow
        control.  ``1`` degenerates to strict serial request/reply.
    health_extra:
        Optional zero-argument callable returning a dict merged into the
        health snapshot — how the CLI wires deployment-level facts (a
        follower's replication lag) into the liveness frame without the
        transport knowing about them.
    send_buffer_limit / write_deadline_s:
        Slow-client protection.  ``send_buffer_limit`` bounds the
        per-connection outbound transport buffer (drain blocks above
        it); ``write_deadline_s`` caps how long one connection's flush
        may stay blocked before the connection is aborted.  A client
        that stops reading its replies therefore wedges only itself —
        its handler results are discarded with its connection — and
        never stalls the pipelined flush for anyone else (connections
        are independent tasks; the deadline bounds the wedged one's
        memory and task lifetime).
    """

    def __init__(self, endpoint, host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 handler_threads: int = 8,
                 owns_endpoint: bool = False,
                 health_extra=None,
                 pipeline_window: int = 64,
                 send_buffer_limit: int = 1 << 20,
                 write_deadline_s: float = 5.0) -> None:
        if handler_threads < 1:
            raise ValueError("handler_threads must be >= 1")
        if pipeline_window < 1:
            raise ValueError("pipeline_window must be >= 1")
        self.endpoint = endpoint
        self.max_frame = max_frame
        self.owns_endpoint = owns_endpoint
        self.health_extra = health_extra
        self.pipeline_window = pipeline_window
        self.send_buffer_limit = send_buffer_limit
        self.write_deadline_s = write_deadline_s
        self._host = host
        self._port = port
        self._pool = ThreadPoolExecutor(
            max_workers=handler_threads, thread_name_prefix="net-handler")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._address: tuple[str, int] | None = None
        self._live_stats: list[ConnectionStats] = []
        self._stats_lock = threading.Lock()
        self._open_connections = 0
        self._peak_open = 0
        self._max_frame_seen = 0
        self._total = ConnectionStats(peer="*")
        self._closed = False
        # Wire/lifecycle counters on the process-wide metrics registry
        # (one labelled series per server instance), plus the identify
        # request-latency histogram the stats exposition surfaces.
        instance = obs.registry.next_instance("net")
        reg = obs.registry
        self._connections = reg.counter(
            "repro_net_connections_total",
            "TCP connections accepted.", labels=instance)
        self._clean_closes = reg.counter(
            "repro_net_clean_closes_total",
            "Connections ended by a clean client EOF between frames.",
            labels=instance)
        self._dropped = reg.counter(
            "repro_net_dropped_connections_total",
            "Connections dropped mid-exchange, after a framing "
            "violation, or by server shutdown.", labels=instance)
        self._slow_client_drops = reg.counter(
            "repro_net_slow_client_drops_total",
            "Connections aborted because their outbound flush stalled "
            "past the write deadline.", labels=instance)
        self._frames_in = reg.counter(
            "repro_net_frames_total",
            "Frames moved over the wire.",
            labels={**instance, "direction": "in"})
        self._frames_out = reg.counter(
            "repro_net_frames_total",
            "Frames moved over the wire.",
            labels={**instance, "direction": "out"})
        self._bytes_in = reg.counter(
            "repro_net_wire_bytes_total",
            "Wire bytes moved (frame prefixes included).",
            labels={**instance, "direction": "in"})
        self._bytes_out = reg.counter(
            "repro_net_wire_bytes_total",
            "Wire bytes moved (frame prefixes included).",
            labels={**instance, "direction": "out"})
        self.identify_seconds = reg.histogram(
            "repro_identify_latency_seconds",
            "Server-side identification-request handler latency.",
            labels=instance)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, start accepting, and return the bound ``(host, port)``.

        Idempotent once started; raises the underlying ``OSError`` if
        the bind fails.
        """
        if self._thread is not None:
            if self._startup_error is not None:
                raise self._startup_error
            assert self._address is not None
            return self._address
        self._thread = threading.Thread(
            target=self._thread_main, name="net-server", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        assert self._address is not None
        return self._address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; raises before :meth:`start`."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    def close(self) -> None:
        """Stop accepting, drain connections, join threads.  Idempotent.

        In-flight handler calls finish (their replies are dropped with
        the cancelled connections); then the executor shuts down, and
        the endpoint too when ``owns_endpoint`` was set.
        """
        if self._closed:
            return
        self._closed = True
        if (self._loop is not None and self._stop is not None
                and not self._loop.is_closed()):
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop closed between the check and the call
                # (failed start(): the bind error is the story, not this)
        if self._thread is not None:
            self._thread.join()
        self._pool.shutdown(wait=True, cancel_futures=True)
        if self.owns_endpoint:
            endpoint_close = getattr(self.endpoint, "close", None)
            if endpoint_close is not None:
                endpoint_close()

    def __enter__(self) -> "NetworkServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- event-loop thread --------------------------------------------------

    def _thread_main(self) -> None:
        """Run the accept loop on a private event loop until stopped."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced via start()
            if not self._ready.is_set():
                self._startup_error = exc
        finally:
            self._ready.set()
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        """Bind, publish readiness, serve until the stop event fires."""
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._on_connection, self._host, self._port)
        sockname = server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            # Stop accepting but keep the server open until the end: a
            # connection accepted just before stop still attaches its
            # transport, which a closed asyncio server refuses (and the
            # accepted socket then leaks, open, past the loop).
            loop = asyncio.get_running_loop()
            for sock in server.sockets:
                loop.remove_reader(sock.fileno())
            # Cancel every task on this private loop (connections being
            # accepted or served, their frame reads and handler
            # dispatches), so none outlives the loop.
            me = asyncio.current_task()
            while True:
                tasks = asyncio.all_tasks() - {me}
                # One loop pass first: each task in ``tasks`` takes its
                # first step (one cancelled before that never runs its
                # cleanup, so its socket would stay open), and callbacks
                # already scheduled, such as a closed transport's
                # teardown, run.
                await asyncio.sleep(0)
                if not tasks and asyncio.all_tasks() == {me}:
                    break
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            server.close()
            await server.wait_closed()

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Track, serve, and account one client connection."""
        peername = writer.get_extra_info("peername")
        stats = ConnectionStats(
            peer=f"{peername[0]}:{peername[1]}" if peername else "?")
        self._connections.inc()
        with self._stats_lock:
            self._open_connections += 1
            if self._open_connections > self._peak_open:
                self._peak_open = self._open_connections
            self._live_stats.append(stats)
        # Bound this connection's outbound transport buffer: drain()
        # blocks once it fills, which is what gives the write deadline
        # in _send_many something real to measure against.
        try:
            writer.transport.set_write_buffer_limits(
                high=self.send_buffer_limit)
        except (AttributeError, RuntimeError):
            pass  # transport already closing or not buffer-limited
        clean = False
        try:
            clean = await self._serve_connection(reader, writer, stats)
        except asyncio.CancelledError:
            pass  # server shutdown: drop the connection quietly
        except (ConnectionError, OSError):
            # Peer reset mid-read, or our own slow-client abort tore the
            # transport under a pending read — either way only this
            # connection drops.
            pass
        finally:
            if clean:
                self._clean_closes.inc()
            else:
                self._dropped.inc()
            with self._stats_lock:
                self._open_connections -= 1
                self._live_stats = [s for s in self._live_stats
                                    if s is not stats]
                if stats.max_frame_bytes > self._max_frame_seen:
                    self._max_frame_seen = stats.max_frame_bytes
                if stats.max_frame_bytes > self._total.max_frame_bytes:
                    self._total.max_frame_bytes = stats.max_frame_bytes
                for mine, total in (
                    (stats.to_server, self._total.to_server),
                    (stats.to_device, self._total.to_device),
                ):
                    total.messages += mine.messages
                    total.wire_bytes += mine.wire_bytes
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer already gone; nothing left to flush
            except asyncio.CancelledError:
                # Shutdown cancelled us again while closing: end quietly,
                # or the stream protocol's done-callback logs the cancel.
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                stats: ConnectionStats) -> bool:
        """The request/reply loop for one connection.

        Frames are read ahead (up to ``pipeline_window`` outstanding)
        and dispatched to the handler pool concurrently; replies are
        delivered strictly in request order, and every delivery gathers
        the whole completed prefix into one ``writelines`` flush — one
        syscall per batch tick, not per reply.  With the window at 1 (or
        a serial client) this is byte-for-byte the old strict
        request/reply loop.

        Returns ``True`` for a clean close (client EOF between frames),
        ``False`` when the connection is torn down after a framing
        violation — the clean/dropped accounting distinction.
        """
        loop = asyncio.get_running_loop()
        # Each in-flight entry is [task, reply, wire_trace, span_trace]:
        # ``task`` is the pending handler dispatch (None for replies the
        # loop thread computed inline — admin frames, decode errors).
        in_flight: list[list] = []
        read_task: asyncio.Task | None = None
        eof = False
        failure: ProtocolError | None = None
        try:
            while True:
                # Gather the completed prefix and flush it in one writev.
                batch = []
                while in_flight and (in_flight[0][0] is None
                                     or in_flight[0][0].done()):
                    task, reply, wire_trace, span_trace = in_flight.pop(0)
                    if task is not None:
                        reply = task.result()
                    batch.append((reply, wire_trace, span_trace))
                if batch:
                    await self._send_many(writer, stats, batch)
                if failure is not None:
                    if not in_flight:
                        # Framing is no longer trustworthy: every reply
                        # that was already owed has been delivered above;
                        # answer the violation once, then hang up.
                        await self._send(writer, stats, ErrorReply(
                            code="protocol", detail=str(failure)))
                        return False
                elif eof and not in_flight:
                    return True  # clean EOF between frames
                waiters: set[asyncio.Task] = set()
                if in_flight:
                    waiters.add(in_flight[0][0])
                if (failure is None and not eof
                        and len(in_flight) < self.pipeline_window):
                    if read_task is None:
                        read_task = loop.create_task(
                            read_frame(reader, self.max_frame))
                    waiters.add(read_task)
                done, _ = await asyncio.wait(
                    waiters, return_when=asyncio.FIRST_COMPLETED)
                if read_task is not None and read_task in done:
                    finished, read_task = read_task, None
                    try:
                        payload = finished.result()
                    except ProtocolError as exc:
                        failure = exc
                        continue
                    if payload is None:
                        eof = True
                        continue
                    self._ingest_frame(loop, payload, stats, in_flight)
        finally:
            if read_task is not None:
                read_task.cancel()
            for entry in in_flight:
                if entry[0] is not None:
                    entry[0].cancel()

    def _ingest_frame(self, loop: asyncio.AbstractEventLoop, payload,
                      stats: ConnectionStats, in_flight: list[list]) -> None:
        """Decode one frame and append its reply slot to ``in_flight``.

        Admin frames (stats/health) and malformed requests are answered
        by the loop thread itself — their entries carry a ready reply so
        a wedged handler pool still reports (un)health; real requests
        get a handler-pool dispatch task.  Either way the entry keeps
        its arrival position, which is what makes reply order equal
        request order.
        """
        stats.record_frame(stats.to_server, len(payload) + PREFIX_BYTES)
        self._frames_in.inc()
        self._bytes_in.inc(len(payload) + PREFIX_BYTES)
        wire_trace: bytes | None = None
        deadline_at: float | None = None
        try:
            message = Message.decode(payload)
            if isinstance(message, TracedEnvelope):
                # Unwrap the trace envelope; the inner message is
                # dispatched normally and the reply is wrapped with
                # the same id (errors included).
                wire_trace = message.trace_id
                message = message.inner()
                if isinstance(message, TracedEnvelope):
                    raise ProtocolError("nested trace envelope")
            if isinstance(message, DeadlineEnvelope):
                # Unwrap the deadline envelope (always inside the trace
                # envelope when both are present): the budget starts
                # counting from arrival, here, on this host's clock —
                # no cross-host clock comparison ever happens.
                deadline_at = deadlines.budget_to_deadline(
                    message.budget_ms())
                message = message.inner()
                if isinstance(message, (DeadlineEnvelope, TracedEnvelope)):
                    raise ProtocolError("nested envelope inside deadline")
            if isinstance(message, StatsRequest):
                # Admin scrape: only serialises in-memory counters and
                # never touches the endpoint.
                in_flight.append([None, self._stats_reply(message),
                                  wire_trace, wire_trace])
                return
            if isinstance(message, HealthRequest):
                in_flight.append([None, self._health_reply(),
                                  wire_trace, wire_trace])
                return
            handler_name = REQUEST_HANDLERS.get(type(message))
            if handler_name is None:
                raise ProtocolError(
                    f"{type(message).__name__} is not a request message"
                )
        except ProtocolError as exc:
            # The frame parsed as a frame, so the stream is still in
            # sync: report the bad request and keep serving.  The
            # error reply carries the request's trace id, so even a
            # failed request stays attributable end-to-end.
            in_flight.append([None, ErrorReply(
                code="protocol", detail=str(exc)), wire_trace, wire_trace])
            return
        # When the client did not send an envelope, mint an id here
        # (while tracing is on) so server-side spans still correlate;
        # the reply stays unwrapped for envelope-unaware clients.
        trace_id = wire_trace
        if trace_id is None and obs.tracer.enabled:
            trace_id = obs.mint_trace_id()
        handler = getattr(self.endpoint, handler_name)
        task = loop.create_task(
            self._dispatch(loop, handler, message, trace_id, deadline_at))
        in_flight.append([task, None, wire_trace, trace_id])

    async def _dispatch(self, loop: asyncio.AbstractEventLoop, handler,
                        message: Message,
                        trace_id: bytes | None,
                        deadline_at: float | None = None) -> Message:
        """Run one handler on the pool; always resolves to a reply frame."""
        try:
            return await loop.run_in_executor(
                self._pool, self._run_handler, handler, message, trace_id,
                deadline_at)
        except DeadlineExceededError as exc:
            # Before TransientError (it is one): the typed shed reply —
            # a client still waiting maps it back to the same exception.
            return ErrorReply.make(
                code="expired", detail=str(exc),
                retry_after_ms=getattr(exc, "retry_after_ms", None))
        except ServiceOverloadError as exc:
            return ErrorReply.make(
                code="overload", detail=str(exc),
                retry_after_ms=getattr(exc, "retry_after_ms", None))
        except TransientError as exc:
            # Restarting batcher & friends: the request was not
            # applied; tell the client to back off and resubmit.
            return ErrorReply.make(
                code="retry", detail=str(exc),
                retry_after_ms=getattr(exc, "retry_after_ms", None))
        except ServiceClosedError as exc:
            return ErrorReply(code="closed", detail=str(exc))
        except ProtocolError as exc:
            return ErrorReply(code="protocol", detail=str(exc))
        except Exception as exc:  # noqa: BLE001 — the loop must survive
            return ErrorReply(
                code="internal",
                detail=f"{type(exc).__name__}: {exc}")

    def _run_handler(self, handler, message: Message,
                     trace_id: bytes | None,
                     deadline_at: float | None = None) -> Message:
        """Run one endpoint handler with the request's trace bound.

        Runs on the handler pool; spans recorded downstream (frontend
        queue/batch waits, engine scan, cached verify) land on this
        request's trace, and identification requests feed the
        server-side identify latency histogram.  The request's deadline
        (when its frame carried a budget) is bound the same ambient way
        the trace is, so the frontend's admission path can shed doomed
        work without the handler surface changing.
        """
        start = time.perf_counter()
        with obs.tracer.bind(trace_id), deadlines.bind(deadline_at):
            reply = handler(message)
        if isinstance(message, IdentificationRequest):
            self.identify_seconds.observe(time.perf_counter() - start)
        return reply

    def _stats_reply(self, request: StatsRequest) -> StatsReply:
        """Build the JSON observability snapshot a ``StatsRequest`` asks
        for (unknown queries raise :class:`ProtocolError`)."""
        if request.query not in ("all", "metrics", "traces"):
            raise ProtocolError(f"unknown stats query {request.query!r}")
        limit = request.trace_limit() or 50
        payload: dict = {}
        if request.query in ("all", "metrics"):
            payload["metrics"] = obs.registry.collect()
        if request.query in ("all", "traces"):
            payload["traces"] = obs.tracer.traces_json(limit)
        if request.query == "all":
            payload["server"] = self.server_stats().as_dict()
            endpoint: dict = {}
            for label, attr in (("frontend", "stats"),
                                ("engine", "engine_stats")):
                accessor = getattr(self.endpoint, attr, None)
                if accessor is None:
                    continue
                try:
                    snapshot = accessor()
                except Exception:  # noqa: BLE001 — scrape must not fail serve
                    continue
                if snapshot is not None:
                    endpoint[label] = asdict(snapshot)
            sessions = getattr(self.endpoint, "outstanding_sessions", None)
            if sessions is not None:
                try:
                    endpoint["outstanding_sessions"] = sessions()
                except Exception:  # noqa: BLE001
                    pass
            payload["endpoint"] = endpoint
        return StatsReply(payload=json.dumps(payload))

    def _health_reply(self) -> HealthReply:
        """Build the liveness/readiness snapshot a ``HealthRequest``
        asks for.

        ``alive`` is implicit in the reply existing; ``ready`` comes
        from the endpoint's snapshot (a bare server is always ready).
        Endpoint and ``health_extra`` failures degrade the payload, not
        the probe — a health check that can itself crash is worse than
        none.
        """
        payload: dict = {"alive": True, "ready": True,
                         "open_connections": self.open_connections()}
        snapshot = getattr(self.endpoint, "health_snapshot", None)
        if snapshot is not None:
            try:
                payload.update(snapshot())
            except Exception as exc:  # noqa: BLE001 — probe must answer
                payload["ready"] = False
                payload["health_error"] = f"{type(exc).__name__}: {exc}"
        if self.health_extra is not None:
            try:
                payload.update(self.health_extra())
            except Exception as exc:  # noqa: BLE001 — probe must answer
                payload["health_extra_error"] = f"{type(exc).__name__}: {exc}"
        return HealthReply(payload=json.dumps(payload))

    def _frame_reply(self, message: Message) -> list[bytes] | None:
        """Frame a reply, degrading to a trimmed error frame if over cap.

        Returns the frame's buffer list so the gathered flush can
        hand it to the transport without concatenating.  A reply
        larger than ``max_frame`` (a tiny configured cap, or an O(N)
        baseline batch outgrowing it) must not kill the connection
        silently: the client gets an error frame whose detail is cut to
        fit — an oversized error reply keeps its own code and detail,
        anything else becomes a ``protocol`` error naming the cap.
        Returns ``None`` only when the cap is too small for even an
        empty error frame.
        """
        try:
            return frame_buffers(message, self.max_frame)
        except ProtocolError as exc:
            if isinstance(message, ErrorReply):
                code, detail = message.code, message.detail
            else:
                code, detail = "protocol", str(exc)
            # Everything but the detail: each field's chunk length, the
            # code and an empty retry hint.
            room = self.max_frame - len(
                ErrorReply(code=code, detail="").encode())
            try:
                return frame_buffers(
                    ErrorReply(code=code, detail=detail[:max(room, 0)]),
                    self.max_frame)
            except ProtocolError:
                return None

    async def _send(self, writer: asyncio.StreamWriter,
                    stats: ConnectionStats, message: Message,
                    trace_id: bytes | None = None,
                    span_trace: bytes | None = None) -> None:
        """Frame, account, and flush one server-to-device message.

        ``trace_id`` (the id from the request's wire envelope, when one
        came in) wraps the reply in a matching envelope; ``span_trace``
        (defaults to ``trace_id``) is the trace the serialize span is
        recorded against — it may be a server-minted id that is bound
        locally but never echoed to an envelope-unaware client.
        """
        await self._send_many(
            writer, stats, [(message, trace_id, span_trace or trace_id)])

    async def _send_many(self, writer: asyncio.StreamWriter,
                         stats: ConnectionStats, batch: list) -> None:
        """Frame a batch of replies and flush them in one gathered write.

        ``batch`` holds ``(message, trace_id, span_trace)`` triples in
        delivery order.  All surviving frames go to the transport via a
        single ``writelines`` (writev-style — no per-reply syscall, no
        concatenation copy) followed by one ``drain``.  Fault-injection
        rules are still consulted per frame, so chaos plans see the
        same per-reply drop/truncate/delay decisions as the serial
        path: a dropped reply is skipped, a truncated one flushes the
        batch up to the torn frame and hangs up.
        """
        start = time.perf_counter()
        buffers: list[bytes] = []
        sent: list[tuple[int, bytes | None]] = []  # (frame len, span trace)
        for message, trace_id, span_trace in batch:
            if trace_id is not None:
                message = TracedEnvelope.wrap(message, trace_id)
            frame_parts = self._frame_reply(message)
            if frame_parts is None:
                continue
            length = sum(len(chunk) for chunk in frame_parts)
            rule = faults.decide("net.server.send")
            if rule is not None:
                if rule.style == "drop":
                    # Swallow the reply: the client's read deadline is
                    # what turns this into a retryable timeout.
                    continue
                if rule.style == "truncate":
                    # A torn write: half a frame, then hang up — the
                    # client must classify this as a lost connection,
                    # not a reply.
                    frame = b"".join(frame_parts)
                    buffers.append(frame[:max(1, len(frame) // 2)])
                    writer.writelines(buffers)
                    writer.close()
                    return
                if rule.style == "delay":
                    await asyncio.sleep(rule.delay_s)
            buffers.extend(frame_parts)
            sent.append((length, span_trace))
        if not buffers:
            return
        # Account before the flush: once the client holds a reply its
        # frame must already be counted, or a stats snapshot taken right
        # after a round trip can read one frame short.
        for length, _ in sent:
            stats.record_frame(stats.to_device, length)
            self._frames_out.inc()
            self._bytes_out.inc(length)
        writer.writelines(buffers)
        try:
            # The drain is deadline-bounded: a client that stopped
            # reading keeps the transport buffer above the limit
            # indefinitely, and without the cap this connection's task
            # (and every reply it still owes) would be wedged forever.
            # asyncio.timeout (not wait_for): wait_for on 3.11 swallows
            # an external cancel that lands after the drain completed,
            # which ate the connection task's one shutdown cancel and
            # wedged close().
            async with asyncio.timeout(self.write_deadline_s):
                await writer.drain()
        except asyncio.TimeoutError:
            self._slow_client_drops.inc()
            obs.events.emit(
                "net", component="server", action="slow-client-drop",
                peer=stats.peer, buffered=len(buffers))
            writer.transport.abort()
            raise ConnectionResetError(
                f"outbound flush to {stats.peer} stalled past "
                f"{self.write_deadline_s}s write deadline") from None
        except (ConnectionError, OSError):
            pass  # peer vanished mid-reply; the read side will see EOF
        elapsed = (time.perf_counter() - start) / len(sent)
        for length, span_trace in sent:
            obs.tracer.record("serialize", elapsed, trace_id=span_trace,
                              detail=f"{length}B")

    # -- introspection ------------------------------------------------------

    def wire_stats(self) -> ConnectionStats:
        """Aggregate traffic across all connections, live and closed.

        Totals (bytes, frames) are summed; ``max_frame_bytes`` is the
        *maximum* across connections — a peak survives aggregation
        instead of being flattened into a sum.  Live connections'
        counters are sampled without synchronising the event loop, so a
        snapshot taken mid-request can lag by a frame.
        """
        with self._stats_lock:
            total = ConnectionStats(peer="*")
            for conn in [self._total, *self._live_stats]:
                if conn.max_frame_bytes > total.max_frame_bytes:
                    total.max_frame_bytes = conn.max_frame_bytes
                for mine, agg in ((conn.to_server, total.to_server),
                                  (conn.to_device, total.to_device)):
                    agg.messages += mine.messages
                    agg.wire_bytes += mine.wire_bytes
            return total

    def server_stats(self) -> NetServerStats:
        """Lifecycle snapshot: served/open/peak connection counts, the
        clean-vs-dropped close split, and the largest frame served."""
        with self._stats_lock:
            open_now = self._open_connections
            peak = self._peak_open
            max_frame = max(
                self._max_frame_seen,
                *(conn.max_frame_bytes for conn in self._live_stats),
                0)
        return NetServerStats(
            connections_served=int(self._connections.value),
            open_connections=open_now,
            peak_open_connections=peak,
            clean_closes=int(self._clean_closes.value),
            dropped_connections=int(self._dropped.value),
            max_frame_bytes=max_frame,
        )

    def connections_served(self) -> int:
        """Connections accepted over the server's lifetime."""
        return int(self._connections.value)

    def open_connections(self) -> int:
        """Connections currently being served."""
        with self._stats_lock:
            return self._open_connections
