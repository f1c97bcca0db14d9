"""End-to-end tests for the asyncio TCP transport.

Every test drives the *real* stack — engine, server, frontend, asyncio
acceptor, blocking client — over localhost sockets, under the suite's
SIGALRM watchdog so a wedged loop fails fast instead of hanging CI.
"""

import asyncio
import logging
import socket
import threading
import time

import numpy as np
import pytest

from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.params import SystemParams
from repro.engine.engine import IdentificationEngine
from repro.exceptions import (
    ConnectionLostError,
    ProtocolError,
    ServiceClosedError,
    ServiceOverloadError,
)
from repro.net.client import NetworkClient, RemoteEndpoint
from repro.net.framing import recv_frame
from repro.net.server import NetworkServer
from repro.protocols.device import BiometricDevice
from repro.protocols.messages import (
    EnrollmentAck,
    ErrorReply,
    IdentificationChallenge,
    IdentificationRequest,
    Message,
)
from repro.protocols.runners import (
    run_baseline_identification,
    run_enrollment,
    run_identification,
    run_verification,
)
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink
from repro.service.frontend import ServiceFrontend

N_USERS = 4


@pytest.fixture
def net_params() -> SystemParams:
    """Paper geometry at a transport-test-sized dimension."""
    return SystemParams.paper_defaults(n=32)


@pytest.fixture
def population(net_params):
    return UserPopulation(net_params, size=N_USERS,
                          noise=BoundedUniformNoise(net_params.t), seed=11)


def _build_stack(net_params, fast_scheme, population, seed_tag: bytes):
    """Engine + server + enrolled population, deterministically seeded."""
    engine = IdentificationEngine(net_params, shards=2)
    server = AuthenticationServer(net_params, fast_scheme, store=engine,
                                  seed=b"net-test-" + seed_tag)
    device = BiometricDevice(net_params, fast_scheme,
                             seed=b"net-dev-" + seed_tag)
    for i, user_id in enumerate(population.user_ids()):
        run = run_enrollment(device, server, DuplexLink(), user_id,
                             population.template(i))
        assert run.outcome.accepted
    return engine, server, device


class TestEndToEndParity:
    def test_tcp_flow_matches_in_process(self, net_params, fast_scheme,
                                         population, watchdog):
        """The acceptance flow: enrollment + identification + verification
        through NetworkClient -> TCP -> NetworkServer(ServiceFrontend)
        produce the same outcomes as the in-process runner on an
        identically seeded stack."""
        # In-process reference.
        _, ref_server, ref_device = _build_stack(
            net_params, fast_scheme, population, b"parity")
        reference = []
        for i in range(N_USERS):
            run = run_identification(ref_device, ref_server, DuplexLink(),
                                     population.genuine_reading(i))
            reference.append((run.outcome.identified, run.outcome.user_id))
        ref_imp = run_identification(ref_device, ref_server, DuplexLink(),
                                     population.impostor_reading())
        ref_ver = run_verification(ref_device, ref_server, DuplexLink(),
                                   population.user_ids()[0],
                                   population.genuine_reading(0))

        # Same stack shape, served over TCP through the frontend.
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"parity")
        frontend = ServiceFrontend(server, workers=2)
        with NetworkServer(frontend, owns_endpoint=True) as net:
            host, port = net.address
            with RemoteEndpoint.connect(host, port) as remote:
                observed = []
                for i in range(N_USERS):
                    run = run_identification(
                        device, remote, DuplexLink(),
                        population.genuine_reading(i))
                    observed.append(
                        (run.outcome.identified, run.outcome.user_id))
                obs_imp = run_identification(device, remote, DuplexLink(),
                                             population.impostor_reading())
                obs_ver = run_verification(device, remote, DuplexLink(),
                                           population.user_ids()[0],
                                           population.genuine_reading(0))
        assert observed == reference
        assert (obs_imp.outcome.identified, ref_imp.outcome.identified) \
            == (False, False)
        assert obs_ver.outcome.verified and ref_ver.outcome.verified
        assert obs_ver.outcome.user_id == ref_ver.outcome.user_id

    def test_enrollment_over_wire_then_identify(self, net_params,
                                                fast_scheme, population,
                                                watchdog):
        engine = IdentificationEngine(net_params, shards=2)
        server = AuthenticationServer(net_params, fast_scheme, store=engine,
                                      seed=b"wire-enroll")
        device = BiometricDevice(net_params, fast_scheme, seed=b"wire-dev")
        with NetworkServer(ServiceFrontend(server, workers=2),
                           owns_endpoint=True) as net:
            host, port = net.address
            with RemoteEndpoint.connect(host, port) as remote:
                for i, user_id in enumerate(population.user_ids()):
                    run = run_enrollment(device, remote, DuplexLink(),
                                         user_id, population.template(i))
                    assert run.outcome.accepted
                # Duplicate enrollment refused across the wire too.
                dup = run_enrollment(device, remote, DuplexLink(),
                                     population.user_ids()[0],
                                     population.template(0))
                assert not dup.outcome.accepted
                run = run_identification(device, remote, DuplexLink(),
                                         population.genuine_reading(2))
                assert run.outcome.identified
                assert run.outcome.user_id == population.user_ids()[2]
        assert len(engine) == N_USERS

    def test_baseline_protocol_over_wire(self, net_params, fast_scheme,
                                         population, watchdog):
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"baseline")
        with NetworkServer(server) as net:
            host, port = net.address
            with RemoteEndpoint.connect(host, port) as remote:
                run = run_baseline_identification(
                    device, remote, DuplexLink(),
                    population.genuine_reading(1), pessimistic=False)
        assert run.outcome.identified
        assert run.outcome.user_id == population.user_ids()[1]


class TestConcurrentClients:
    def test_closed_loop_parity(self, net_params, fast_scheme, population,
                                watchdog):
        _, server, _ = _build_stack(
            net_params, fast_scheme, population, b"concurrent")
        frontend = ServiceFrontend(server, workers=2, max_batch=8)
        clients = 6
        per_client = 3
        errors: list[BaseException] = []
        barrier = threading.Barrier(clients)

        def client(c: int) -> None:
            rng = np.random.default_rng(100 + c)
            device = BiometricDevice(net_params, fast_scheme,
                                     seed=b"cc-%d" % c)
            try:
                with RemoteEndpoint.connect(host, port) as remote:
                    barrier.wait()
                    for _ in range(per_client):
                        user = int(rng.integers(0, N_USERS))
                        run = run_identification(
                            device, remote, DuplexLink(),
                            population.genuine_reading(user, rng))
                        assert run.outcome.identified
                        assert run.outcome.user_id == \
                            population.user_ids()[user]
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        with NetworkServer(frontend, owns_endpoint=True,
                           handler_threads=clients + 2) as net:
            host, port = net.address
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors, errors[0]


class _OverloadedEndpoint:
    """Stub endpoint whose identification path is permanently full."""

    def handle_identification_request(self, request):
        raise ServiceOverloadError("request queue full (stub)")


class _GatedServer:
    """Wraps a server; identification scans block until released."""

    def __init__(self, server, entered: threading.Event,
                 release: threading.Event) -> None:
        self._server = server
        self.entered = entered
        self.release = release

    def handle_identification_batch(self, requests):
        self.entered.set()
        assert self.release.wait(60.0), "gate never released"
        return self._server.handle_identification_batch(requests)

    def __getattr__(self, name):
        return getattr(self._server, name)


class TestBackpressure:
    def test_overload_error_crosses_the_wire(self, net_params, fast_scheme,
                                             watchdog):
        device = BiometricDevice(net_params, fast_scheme, seed=b"ov-dev")
        sketch = device.probe_sketch(np.zeros(net_params.n, dtype=np.int64))
        with NetworkServer(_OverloadedEndpoint()) as net:
            host, port = net.address
            with RemoteEndpoint.connect(host, port) as remote:
                with pytest.raises(ServiceOverloadError, match="queue full"):
                    remote.handle_identification_request(sketch)
                # The connection survives a rejected request.
                with pytest.raises(ServiceOverloadError):
                    remote.handle_identification_request(sketch)

    def test_queue_full_frontend_rejects_remote_client(
            self, net_params, fast_scheme, population, watchdog):
        """Deterministic queue-full: the batcher is gated mid-scan, one
        op fills the single queue slot, and the next remote submit gets
        the typed overload frame."""
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"queuefull")
        entered, release = threading.Event(), threading.Event()
        gated = _GatedServer(server, entered, release)
        frontend = ServiceFrontend(gated, max_queue=1, max_batch=1,
                                   batch_window_s=0.0, batch_linger_s=0.0,
                                   workers=1, submit_timeout_s=1.0)
        results: list[object] = []

        def blocked_client(index: int) -> None:
            with RemoteEndpoint.connect(host, port) as remote:
                run = run_identification(device, remote, DuplexLink(),
                                         population.genuine_reading(index))
                results.append(run.outcome.user_id)

        with NetworkServer(frontend, owns_endpoint=True,
                           handler_threads=4) as net:
            host, port = net.address
            first = threading.Thread(target=blocked_client, args=(0,))
            first.start()
            assert entered.wait(30.0)  # batcher is now gated mid-scan
            second = threading.Thread(target=blocked_client, args=(1,))
            second.start()
            # Give the second probe time to occupy the only queue slot.
            time.sleep(0.3)
            with RemoteEndpoint.connect(host, port) as remote:
                probe = device.probe_sketch(
                    population.genuine_reading(2))
                with pytest.raises(ServiceOverloadError):
                    remote.handle_identification_request(probe)
            release.set()
            first.join()
            second.join()
        assert sorted(results) == sorted(population.user_ids()[:2])


class TestRobustness:
    def test_hostile_length_prefix_drops_only_that_connection(
            self, net_params, fast_scheme, population, watchdog):
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"garbage")
        with NetworkServer(server) as net:
            host, port = net.address
            raw = socket.create_connection((host, port), timeout=10.0)
            try:
                # Claims a 2 GiB frame: framing is untrustworthy, so the
                # server answers once and hangs up.
                raw.sendall((1 << 31).to_bytes(4, "big") + b"x")
                reply = Message.decode(recv_frame(raw))
                assert isinstance(reply, ErrorReply)
                assert reply.code == "protocol"
                assert recv_frame(raw) is None  # server hung up
            finally:
                raw.close()
            # The accept loop survived: a fresh connection still works.
            with RemoteEndpoint.connect(host, port) as remote:
                run = run_identification(device, remote, DuplexLink(),
                                         population.genuine_reading(0))
                assert run.outcome.identified

    def test_unknown_type_tag_keeps_connection(self, net_params,
                                               fast_scheme, population,
                                               watchdog):
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"unknown-tag")
        with NetworkServer(server) as net:
            host, port = net.address
            raw = socket.create_connection((host, port), timeout=10.0)
            try:
                raw.sendall((6).to_bytes(4, "big") + b"\xff\xff!!!!")
                reply = Message.decode(recv_frame(raw))
                assert isinstance(reply, ErrorReply)
                assert reply.code == "protocol"
                # Framing stayed in sync: the same connection still serves.
                from repro.net.framing import send_frame
                send_frame(raw, device.probe_sketch(
                    population.genuine_reading(0)))
                reply = Message.decode(recv_frame(raw))
                assert not isinstance(reply, ErrorReply)
            finally:
                raw.close()

    def test_tampered_field_bytes_answer_protocol_error(
            self, net_params, fast_scheme, population, watchdog):
        """A frame that parses as a frame but carries a corrupt field
        (the strict-bool / wrapped-decode satellites) keeps the
        connection: the server reports and carries on."""
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"tamper")
        with NetworkServer(server) as net:
            host, port = net.address
            raw = socket.create_connection((host, port), timeout=10.0)
            try:
                payload = bytearray(
                    device.probe_sketch(
                        population.genuine_reading(0)).encode())
                payload = payload[:-3]  # ragged int-vector chunk
                # Fix the chunk length so the frame structure stays valid.
                body_len = len(payload) - 2 - 8
                payload[2:10] = body_len.to_bytes(8, "big")
                raw.sendall(len(payload).to_bytes(4, "big") + bytes(payload))
                reply = Message.decode(recv_frame(raw))
                assert isinstance(reply, ErrorReply)
                assert reply.code == "protocol"
                # Same connection, valid request: still served.
                from repro.net.framing import send_frame
                send_frame(raw, device.probe_sketch(
                    population.genuine_reading(1)))
                reply = Message.decode(recv_frame(raw))
                assert not isinstance(reply, ErrorReply)
            finally:
                raw.close()

    def test_non_request_message_rejected_without_drop(
            self, net_params, fast_scheme, population, watchdog):
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"nonreq")
        with NetworkServer(server) as net:
            host, port = net.address
            with NetworkClient(*net.address) as client:
                with pytest.raises(ProtocolError, match="not a request"):
                    client.request(EnrollmentAck(user_id="x", accepted=True))
                reply = client.request(device.probe_sketch(
                    population.genuine_reading(3)))
                assert not isinstance(reply, ErrorReply)

    def test_oversized_client_frame_rejected(self, net_params, fast_scheme,
                                             population, watchdog):
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"oversize")
        with NetworkServer(server, max_frame=64) as net:
            host, port = net.address
            with NetworkClient(host, port) as client:
                # The server refuses the frame on its length prefix and
                # answers with a (detail-trimmed) protocol error frame.
                with pytest.raises(ProtocolError, match="frame"):
                    client.request(device.probe_sketch(
                        population.genuine_reading(0)))

    @pytest.mark.parametrize("reply,code", [
        (ErrorReply(code="overload", detail="x" * 200), "overload"),
        (IdentificationChallenge(helper_data=b"P" * 200, challenge=b"c",
                                 session_id=b"s"), "protocol"),
    ], ids=["error-reply", "other-reply"])
    def test_reply_over_a_tight_cap_is_a_trimmed_error_frame(
            self, net_params, fast_scheme, population, reply, code):
        _, server, _ = _build_stack(net_params, fast_scheme, population,
                                    b"tight-cap")
        net = NetworkServer(server, max_frame=64)
        buffers = net._frame_reply(reply)
        frame = b"".join(buffers[1:])
        assert len(frame) <= 64
        trimmed = Message.decode(frame)
        assert isinstance(trimmed, ErrorReply) and trimmed.code == code
        assert trimmed.detail

    def test_internal_handler_error_answers_typed_frame(
            self, net_params, fast_scheme, watchdog):
        class _Exploding:
            def handle_identification_request(self, request):
                raise RuntimeError("boom")

        device = BiometricDevice(net_params, fast_scheme, seed=b"boom-dev")
        with NetworkServer(_Exploding()) as net:
            with NetworkClient(*net.address) as client:
                from repro.exceptions import ServiceError
                with pytest.raises(ServiceError, match="internal"):
                    client.request(device.probe_sketch(
                        np.zeros(net_params.n, dtype=np.int64)))


class TestAccountingAndLifecycle:
    def test_wire_accounting_matches_both_sides(self, net_params,
                                                fast_scheme, population,
                                                watchdog):
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"acct")
        with NetworkServer(server) as net:
            host, port = net.address
            with RemoteEndpoint.connect(host, port) as remote:
                run_identification(device, remote, DuplexLink(),
                                   population.genuine_reading(0))
                client = remote.client
                assert client.to_server.messages >= 2
                server_stats = net.wire_stats()
                assert server_stats.to_server.wire_bytes == \
                    client.to_server.wire_bytes
                assert server_stats.to_device.wire_bytes == \
                    client.to_device.wire_bytes
                assert server_stats.to_server.messages == \
                    client.to_server.messages
            assert net.connections_served() == 1

    def test_close_is_idempotent_and_rejects_late_requests(
            self, net_params, fast_scheme, population, watchdog):
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"close")
        net = NetworkServer(server)
        host, port = net.start()
        client = NetworkClient(host, port)
        net.close()
        net.close()  # idempotent
        with pytest.raises((ProtocolError, OSError, ServiceClosedError)):
            client.request(device.probe_sketch(
                population.genuine_reading(0)))
            # A half-open socket may need a second round trip to notice.
            client.request(device.probe_sketch(
                population.genuine_reading(0)))
        client.close()

    def test_connection_open_at_close_is_hung_up_promptly(
            self, net_params, fast_scheme, population, watchdog):
        """A client connected just before close() sees EOF or a reset
        within 2 s, instead of waiting out its own read timeout while
        its connection task outlives the server's event loop."""
        _, server, _ = _build_stack(
            net_params, fast_scheme, population, b"hangup")
        net = NetworkServer(server)
        host, port = net.start()
        with socket.create_connection((host, port), timeout=2.0) as sock:
            net.close()
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass  # a reset is as prompt an answer as EOF

    def test_shutdown_cancel_during_connection_close_logs_nothing(
            self, net_params, fast_scheme, population, watchdog,
            monkeypatch, caplog):
        """A peer that hangs up as the server shuts down leaves its
        connection task in ``writer.wait_closed()`` when close() cancels
        it.  That cancel must end the task quietly: nothing may reach the
        asyncio logger or an event loop's exception handler (it used to
        log an ``Exception in callback ... CancelledError`` traceback).
        ``wait_closed`` is held open here so the cancel lands there
        every time, not only when the race is lost."""
        _, server, _ = _build_stack(
            net_params, fast_scheme, population, b"quiet")
        closing = threading.Event()

        async def held_open(writer):
            closing.set()
            await asyncio.Event().wait()

        handled = []
        report = asyncio.BaseEventLoop.call_exception_handler

        def recording(loop, context):
            handled.append(context)
            report(loop, context)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", held_open)
        monkeypatch.setattr(asyncio.BaseEventLoop, "call_exception_handler",
                            recording)
        caplog.set_level(logging.WARNING, logger="asyncio")
        net = NetworkServer(server)
        host, port = net.start()
        socket.create_connection((host, port), timeout=2.0).close()
        assert closing.wait(5.0), "connection task never began its close"
        net.close()
        assert handled == []
        assert [r.getMessage() for r in caplog.records
                if r.name.startswith("asyncio")] == []

    def test_close_after_failed_start_reraises_bind_error(self, net_params,
                                                          fast_scheme,
                                                          watchdog):
        """close() after a failed bind must not mask the OSError with a
        'loop is closed' RuntimeError (regression)."""
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            failed = NetworkServer(_OverloadedEndpoint(),
                                   host="127.0.0.1", port=port)
            with pytest.raises(OSError):
                failed.start()
            failed.close()  # must be a quiet no-op
            with pytest.raises(OSError):
                failed.start()  # the original error stays the story
        finally:
            blocker.close()

    def test_timeout_poisons_the_connection(self, net_params, fast_scheme,
                                            population, watchdog):
        """A timed-out exchange closes the client connection, so a retry
        raises instead of reading the abandoned request's stale reply
        (regression)."""
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"poison")
        entered, release = threading.Event(), threading.Event()
        gated = _GatedServer(server, entered, release)
        frontend = ServiceFrontend(gated, max_batch=1, batch_window_s=0.0,
                                   batch_linger_s=0.0, workers=1)
        with NetworkServer(frontend, owns_endpoint=True) as net:
            host, port = net.address
            client = NetworkClient(host, port, timeout_s=0.5)
            probe = device.probe_sketch(population.genuine_reading(0))
            with pytest.raises(TimeoutError):
                client.request(probe)  # gated server never answers in time
            with pytest.raises(ConnectionLostError, match="spent"):
                client.request(probe)  # poisoned: no stale-reply reads
            release.set()
            client.close()

    def test_restart_cycles_over_one_saved_store(self, net_params,
                                                 fast_scheme, population,
                                                 tmp_path, watchdog):
        """serve -> close -> serve again over the same mmap store: the
        engine close releases its maps, so restarts stay clean."""
        engine, server, device = _build_stack(
            net_params, fast_scheme, population, b"restart")
        store_dir = tmp_path / "net-store"
        engine.save(store_dir)
        engine.close()
        for cycle in range(3):
            reopened = IdentificationEngine.open(store_dir)
            cycle_server = AuthenticationServer(
                net_params, fast_scheme, store=reopened,
                seed=b"restart-%d" % cycle)
            frontend = ServiceFrontend(cycle_server, workers=2)
            with NetworkServer(frontend, owns_endpoint=True) as net:
                host, port = net.address
                with RemoteEndpoint.connect(host, port) as remote:
                    run = run_identification(
                        device, remote, DuplexLink(),
                        population.genuine_reading(cycle % N_USERS))
                    assert run.outcome.identified
            reopened.close()
