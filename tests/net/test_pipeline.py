"""Tests for the client's multi-in-flight window.

The contract under test: a ``NetworkClient`` with a window above 1
produces exactly the outcomes of a window-1 client on an identically
seeded stack (the server's windowed in-order pipelining is invisible at
the protocol level), while allowing many requests in flight on one
connection; failures poison connection-wide, typed error replies stay
per-request.
"""

import threading
import time

import numpy as np
import pytest

from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.params import SystemParams
from repro.engine.engine import IdentificationEngine
from repro.exceptions import (
    ConnectionLostError,
    RequestTimeoutError,
    ServiceOverloadError,
)
from repro.net.client import NetworkClient, RemoteEndpoint
from repro.net.server import NetworkServer
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import run_enrollment, run_identification
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink
from repro.service.frontend import ServiceFrontend

N_USERS = 4


@pytest.fixture
def net_params() -> SystemParams:
    return SystemParams.paper_defaults(n=32)


@pytest.fixture
def population(net_params):
    return UserPopulation(net_params, size=N_USERS,
                          noise=BoundedUniformNoise(net_params.t), seed=23)


def _build_stack(net_params, fast_scheme, population, seed_tag: bytes):
    engine = IdentificationEngine(net_params, shards=2)
    server = AuthenticationServer(net_params, fast_scheme, store=engine,
                                  seed=b"pipe-test-" + seed_tag)
    device = BiometricDevice(net_params, fast_scheme,
                             seed=b"pipe-dev-" + seed_tag)
    for i, user_id in enumerate(population.user_ids()):
        run = run_enrollment(device, server, DuplexLink(), user_id,
                             population.template(i))
        assert run.outcome.accepted
    return engine, server, device


class TestPipelinedParity:
    def test_matches_serial_client_on_seeded_stack(self, net_params,
                                                   fast_scheme, population,
                                                   watchdog):
        """Same requests through window-1 and window-8 clients against
        identically seeded stacks -> identical identification outcomes."""
        _, ref_server, ref_device = _build_stack(
            net_params, fast_scheme, population, b"parity")
        reference = []
        with NetworkServer(ServiceFrontend(ref_server, workers=2),
                           owns_endpoint=True) as net:
            host, port = net.address
            with RemoteEndpoint.connect(host, port) as remote:
                for i in range(N_USERS):
                    run = run_identification(ref_device, remote, DuplexLink(),
                                             population.genuine_reading(i))
                    reference.append(
                        (run.outcome.identified, run.outcome.user_id))

        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"parity")
        observed = []
        with NetworkServer(ServiceFrontend(server, workers=2),
                           owns_endpoint=True) as net:
            host, port = net.address
            with RemoteEndpoint.connect(host, port, pipeline=8) as remote:
                assert remote.client.window == 8
                for i in range(N_USERS):
                    run = run_identification(device, remote, DuplexLink(),
                                             population.genuine_reading(i))
                    observed.append(
                        (run.outcome.identified, run.outcome.user_id))
        assert observed == reference
        assert all(identified for identified, _ in observed)

    def test_threads_share_one_pipelined_connection(self, net_params,
                                                    fast_scheme, population,
                                                    watchdog):
        """N driver threads over ONE pipelined client (each with its own
        endpoint wrapper) all identify correctly — the single-process
        saturation shape of ``net-bench --pipeline``."""
        _, server, _ = _build_stack(
            net_params, fast_scheme, population, b"threads")
        frontend = ServiceFrontend(server, workers=2, max_batch=8)
        drivers = 6
        per_driver = 3
        errors: list[BaseException] = []
        barrier = threading.Barrier(drivers)

        def driver(d: int) -> None:
            rng = np.random.default_rng(300 + d)
            device = BiometricDevice(net_params, fast_scheme,
                                     seed=b"pipe-th-%d" % d)
            remote = RemoteEndpoint(client)  # shared client, not owned
            try:
                barrier.wait()
                for _ in range(per_driver):
                    user = int(rng.integers(0, N_USERS))
                    run = run_identification(
                        device, remote, DuplexLink(),
                        population.genuine_reading(user, rng))
                    assert run.outcome.identified
                    assert run.outcome.user_id == population.user_ids()[user]
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        with NetworkServer(frontend, owns_endpoint=True,
                           handler_threads=drivers + 2) as net:
            host, port = net.address
            with NetworkClient(host, port, window=drivers) as client:
                threads = [threading.Thread(target=driver, args=(d,))
                           for d in range(drivers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        assert not errors, errors[0]

    def test_submit_overlaps_requests(self, net_params, fast_scheme,
                                      population, watchdog):
        """submit() puts several requests in flight at once; the futures
        resolve in FIFO order with the right per-request replies."""
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"overlap")
        with NetworkServer(ServiceFrontend(server, workers=2, max_batch=8),
                           owns_endpoint=True) as net:
            host, port = net.address
            with NetworkClient(host, port, window=8) as client:
                futures = [client.submit(device.probe_sketch(
                    population.genuine_reading(i))) for i in range(N_USERS)]
                replies = [f.result(30.0) for f in futures]
        # Each genuine probe gets a challenge (a sketch hit), not an
        # error frame or a miss outcome.
        for reply in replies:
            assert type(reply).__name__ == "IdentificationChallenge", reply


class TestPipelinedFailures:
    def test_error_reply_is_per_request(self, net_params, fast_scheme,
                                        watchdog):
        """A typed overload reply fails only its own request; the
        connection keeps serving."""
        class _Overloaded:
            def handle_identification_request(self, request):
                raise ServiceOverloadError("request queue full (stub)")

            def handle_enrollment(self, request):  # pragma: no cover
                raise AssertionError("unused")

        device = BiometricDevice(net_params, fast_scheme, seed=b"pipe-ov")
        probe = device.probe_sketch(np.zeros(net_params.n, dtype=np.int64))
        with NetworkServer(_Overloaded()) as net:
            host, port = net.address
            with NetworkClient(*net.address, window=4) as client:
                with pytest.raises(ServiceOverloadError, match="queue full"):
                    client.request(probe)
                # Stream stayed healthy: the next request round-trips.
                with pytest.raises(ServiceOverloadError):
                    client.request(probe)

    def test_timeout_poisons_all_in_flight(self, net_params, fast_scheme,
                                           population, watchdog):
        """A deadline expiry desyncs in-order matching, so it fails every
        outstanding future and spends the connection."""
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"poison")
        entered, release = threading.Event(), threading.Event()

        class _Gated:
            def handle_identification_request(self, request):
                entered.set()
                assert release.wait(60.0)
                return server.handle_identification_request(request)

            def __getattr__(self, name):
                return getattr(server, name)

        with NetworkServer(_Gated(), handler_threads=4) as net:
            host, port = net.address
            client = NetworkClient(host, port, timeout_s=0.5, window=4)
            try:
                probe = device.probe_sketch(population.genuine_reading(0))
                stuck = client.submit(probe)
                assert entered.wait(30.0)
                follower = client.submit(probe)
                with pytest.raises(RequestTimeoutError):
                    client.request(probe)
                # Poison reached the already-submitted futures too.
                with pytest.raises((RequestTimeoutError,
                                    ConnectionLostError)):
                    stuck.result(5.0)
                with pytest.raises((RequestTimeoutError,
                                    ConnectionLostError)):
                    follower.result(5.0)
                # And later submissions are refused outright.
                with pytest.raises(ConnectionLostError, match="spent"):
                    client.request(probe)
            finally:
                release.set()
                client.close()

    def test_server_close_fails_pending_and_late_submits(
            self, net_params, fast_scheme, population, watchdog):
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"drop")
        net = NetworkServer(ServiceFrontend(server, workers=1),
                            owns_endpoint=True)
        host, port = net.start()
        client = NetworkClient(host, port, window=4)
        try:
            probe = device.probe_sketch(population.genuine_reading(0))
            assert client.request(probe) is not None  # connection is live
            net.close()
            deadline = time.monotonic() + 30.0
            # The reader notices the hangup asynchronously; poll briefly.
            while time.monotonic() < deadline:
                try:
                    client.request(probe, deadline_s=2.0)
                except (ConnectionLostError, RequestTimeoutError):
                    break
                time.sleep(0.05)
            else:  # pragma: no cover
                pytest.fail("spent connection kept accepting requests")
            with pytest.raises(ConnectionLostError):
                client.request(probe)
        finally:
            client.close()

    def test_close_is_idempotent_and_fails_outstanding(
            self, net_params, fast_scheme, population, watchdog):
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"close")
        entered, release = threading.Event(), threading.Event()

        class _Gated:
            def handle_identification_request(self, request):
                entered.set()
                assert release.wait(60.0)
                return server.handle_identification_request(request)

            def __getattr__(self, name):
                return getattr(server, name)

        with NetworkServer(_Gated(), handler_threads=2) as net:
            host, port = net.address
            client = NetworkClient(host, port, window=4)
            probe = device.probe_sketch(population.genuine_reading(0))
            stuck = client.submit(probe)
            assert entered.wait(30.0)
            client.close()
            client.close()  # idempotent
            release.set()
            with pytest.raises(Exception):
                stuck.result(10.0)

    def test_window_validation(self, watchdog):
        with pytest.raises(ValueError, match="window"):
            NetworkClient("127.0.0.1", 1, window=0)


class TestWindowOne:
    def test_window_one_equals_serial(self, net_params, fast_scheme,
                                      population, watchdog):
        """window=1 is one-at-a-time, and agrees with a wider window."""
        _, server, device = _build_stack(
            net_params, fast_scheme, population, b"w1")
        with NetworkServer(ServiceFrontend(server, workers=2),
                           owns_endpoint=True) as net:
            host, port = net.address
            with NetworkClient(host, port, window=1) as serial:
                run = run_identification(
                    device, RemoteEndpoint(serial), DuplexLink(),
                    population.genuine_reading(1))
                assert run.outcome.identified
                assert run.outcome.user_id == population.user_ids()[1]
            # And a wider window agrees on the same server.
            with NetworkClient(host, port, window=4) as pipelined:
                run = run_identification(
                    device, RemoteEndpoint(pipelined), DuplexLink(),
                    population.genuine_reading(2))
                assert run.outcome.identified
