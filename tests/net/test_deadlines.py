"""End-to-end deadline propagation over the TCP transport.

The wire contract under test: a request carrying a
:class:`~repro.protocols.messages.DeadlineEnvelope` budget that elapses
while queued is shed *server-side* with ``ErrorReply(code="expired")``,
which the client raises as the typed, per-request
:class:`~repro.exceptions.DeadlineExceededError` — at window 1 the
connection survives, and at a wider window only the expired request's
future fails while the rest of the stream keeps flowing.

The batcher stall that forces each expiry is injected deterministically
through the fault harness (``frontend.batcher``), never by sleeping and
hoping.
"""

import socket
import threading
import time

import pytest

from repro import faults
from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.params import SystemParams
from repro.engine.engine import IdentificationEngine
from repro.exceptions import DeadlineExceededError
from repro.net.client import NetworkClient
from repro.net.framing import send_frame
from repro.net.server import NetworkServer
from repro.protocols.device import BiometricDevice
from repro.protocols.messages import (
    ErrorReply,
    StatsRequest,
    VerificationChallenge,
    VerificationRequest,
)
from repro.protocols.runners import run_enrollment
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink
from repro.service.frontend import ServiceFrontend

N_USERS = 2

#: The injected batcher stall: long enough that a queued 50 ms budget is
#: provably elapsed at dequeue.  The client's reply wait is its own
#: timeout, not the budget, so the typed server verdict must win over a
#: connection-fatal client timeout.
STALL_S = 0.2
BUDGET_MS = 50


@pytest.fixture
def net_params() -> SystemParams:
    return SystemParams.paper_defaults(n=32)


@pytest.fixture
def population(net_params):
    return UserPopulation(net_params, size=N_USERS,
                          noise=BoundedUniformNoise(net_params.t), seed=31)


@pytest.fixture(autouse=True)
def _no_fault_leakage():
    yield
    faults.clear()


@pytest.fixture
def served(net_params, fast_scheme, population):
    """An enrolled stack behind frontend + TCP; yields (address, user)."""
    engine = IdentificationEngine(net_params, shards=2)
    server = AuthenticationServer(net_params, fast_scheme, store=engine,
                                  seed=b"deadline-test")
    device = BiometricDevice(net_params, fast_scheme, seed=b"deadline-dev")
    for i, user_id in enumerate(population.user_ids()):
        run = run_enrollment(device, server, DuplexLink(), user_id,
                             population.template(i))
        assert run.outcome.accepted
    frontend = ServiceFrontend(server, workers=2)
    with NetworkServer(frontend, owns_endpoint=True) as net:
        yield net.address, population.user_ids()[0]


def _stall_batcher_once():
    """Arm one deterministic batcher stall: the next dequeued op holds
    the batch loop for ``STALL_S`` while later submissions queue."""
    faults.install([
        {"point": "frontend.batcher", "style": "delay",
         "delay_s": STALL_S, "times": 1},
    ])


class TestSerialClientDeadlines:
    def test_expired_is_typed_and_connection_survives(self, served,
                                                      watchdog):
        """A queued request whose budget elapses fails with the typed
        per-request error — the server's verdict, not a client-side
        timeout — and the same connection keeps working afterwards."""
        address, user = served
        _stall_batcher_once()

        def trigger():
            with NetworkClient(*address) as trigger_client:
                # No budget: rides out the stall and must succeed.
                reply = trigger_client.request(VerificationRequest(
                    user_id=user))
                assert isinstance(reply, VerificationChallenge)

        t = threading.Thread(target=trigger, name="stall-trigger")
        t.start()
        try:
            # Wait until the trigger op is provably *inside* the stall
            # (the fault has fired) before sending the doomed request —
            # otherwise the doomed op could be the one that trips the
            # stall and it would be served, late but in budget.
            wait_deadline = time.monotonic() + 5.0
            while faults.fired("frontend.batcher") < 1:
                assert time.monotonic() < wait_deadline, \
                    "batcher stall never entered"
                time.sleep(0.005)
            with NetworkClient(*address) as client:
                with pytest.raises(DeadlineExceededError) as excinfo:
                    client.request(VerificationRequest(user_id=user),
                                   budget_ms=BUDGET_MS)
                # The shed carries an honest backoff hint.
                assert excinfo.value.retry_after_ms >= 10
                # Typed error frames leave the connection usable: a
                # client-side timeout would have poisoned it instead.
                reply = client.request(VerificationRequest(user_id=user))
                assert isinstance(reply, VerificationChallenge)
        finally:
            t.join()

    def test_generous_budget_is_served(self, served, watchdog):
        """A budget that outlives the queue wait changes nothing: the
        enveloped request is answered like a bare one."""
        address, user = served
        with NetworkClient(*address) as client:
            reply = client.request(VerificationRequest(user_id=user),
                                   budget_ms=5_000)
            assert isinstance(reply, VerificationChallenge)


class TestPipelinedClientDeadlines:
    def test_expired_fails_only_its_own_request(self, served, watchdog):
        """On one pipelined connection, a server-shed expired request
        resolves only its own future; earlier and later in-flight
        requests on the same stream still succeed (no poisoning)."""
        address, user = served
        _stall_batcher_once()
        with NetworkClient(*address, window=8) as client:
            ahead = client.submit(VerificationRequest(user_id=user))
            doomed = client.submit(VerificationRequest(user_id=user),
                                   budget_ms=BUDGET_MS)
            behind = client.submit(VerificationRequest(user_id=user))

            # Raw futures: error frames resolve, they don't raise.
            assert isinstance(ahead.result(10.0), VerificationChallenge)
            shed = doomed.result(10.0)
            assert isinstance(shed, ErrorReply)
            assert shed.code == "expired"
            assert shed.retry_after_ms() >= 10
            assert isinstance(behind.result(10.0), VerificationChallenge)

            # The mapped blocking path on the same (healthy) stream.
            reply = client.request(VerificationRequest(user_id=user))
            assert isinstance(reply, VerificationChallenge)

    def test_request_raises_typed_error(self, served, watchdog):
        """The blocking wrapper maps the expired frame to the typed
        exception without tearing the stream down."""
        address, user = served
        _stall_batcher_once()
        with NetworkClient(*address, window=8) as client:
            stalled = client.submit(VerificationRequest(user_id=user))
            with pytest.raises(DeadlineExceededError):
                client.request(VerificationRequest(user_id=user),
                               budget_ms=BUDGET_MS)
            assert isinstance(stalled.result(10.0), VerificationChallenge)
            reply = client.request(VerificationRequest(user_id=user))
            assert isinstance(reply, VerificationChallenge)


class TestSlowClientProtection:
    def test_non_reading_client_is_dropped_and_isolated(self, net_params,
                                                        fast_scheme,
                                                        watchdog):
        """A client that pumps requests but never reads its replies hits
        the write deadline and is aborted — and only that connection:
        a polite client on the same server keeps being answered."""
        engine = IdentificationEngine(net_params, shards=1)
        server = AuthenticationServer(net_params, fast_scheme, store=engine,
                                      seed=b"slow-client-test")
        frontend = ServiceFrontend(server, workers=1)
        with NetworkServer(frontend, owns_endpoint=True,
                           send_buffer_limit=8_192,
                           write_deadline_s=0.3) as net:
            host, port = net.address
            rude = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            # Shrink the advertised receive window *before* connecting so
            # the server-side buffers fill after a handful of replies.
            rude.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4_096)
            rude.settimeout(2.0)
            rude.connect((host, port))
            try:
                scrape = StatsRequest.make("all", 0)
                try:
                    # Stats scrapes are answered inline with multi-KB
                    # JSON replies: never reading them backs the
                    # outbound buffer up past the limit fast.
                    for _ in range(5_000):
                        send_frame(rude, scrape)
                except (ConnectionError, OSError):
                    pass  # aborted mid-send: the protection fired
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if net.server_stats().dropped_connections >= 1:
                        break
                    time.sleep(0.05)
                assert net.server_stats().dropped_connections >= 1, \
                    "non-reading client was never dropped"
                with NetworkClient(host, port) as polite:
                    assert polite.health()["alive"] is True
            finally:
                rude.close()
