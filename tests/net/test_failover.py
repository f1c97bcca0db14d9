"""Client resilience and warm-standby failover, end to end.

The acceptance scenario for the fault-tolerance work: a primary and a
journal-following standby serve the same population; a workload runs
through :class:`~repro.net.resilience.FailoverClient`; the primary is
killed mid-workload; and the assertion is *zero* failed and *zero*
wrongly-answered requests — the standby, having replicated the
enrollment journal, answers identically.
"""

import threading
import time

import pytest

from repro import faults
from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.params import SystemParams
from repro.engine.engine import IdentificationEngine
from repro.engine.journal import journal_path
from repro.exceptions import (
    RequestTimeoutError,
    ServiceOverloadError,
    TransientError,
)
from repro.net.client import RemoteEndpoint
from repro.net.replication import JournalFollower
from repro.net.resilience import FailoverClient, RetryPolicy
from repro.net.server import NetworkServer
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import run_enrollment
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink
from repro.service.frontend import ServiceFrontend

N_USERS = 4

#: A seeded fault plan: reply frames dropped, truncated and delayed on
#: the wire, and the frontend batcher crashing now and then.
CHAOS_PLAN = [
    {"point": "net.server.send", "style": "drop", "p": 0.01},
    {"point": "net.server.send", "style": "truncate", "p": 0.02},
    {"point": "net.server.send", "style": "delay", "p": 0.05,
     "delay_s": 0.01},
    {"point": "frontend.batcher", "style": "raise", "p": 0.01},
]


@pytest.fixture
def net_params() -> SystemParams:
    return SystemParams.paper_defaults(n=32)


@pytest.fixture
def population(net_params):
    return UserPopulation(net_params, size=N_USERS,
                          noise=BoundedUniformNoise(net_params.t), seed=23)


@pytest.fixture(autouse=True)
def _no_fault_leakage():
    yield
    faults.clear()


def _serve(engine, net_params, fast_scheme, tag: bytes, **net_kwargs):
    """A journal-capable engine behind frontend + TCP, ready to accept."""
    server = AuthenticationServer(net_params, fast_scheme, store=engine,
                                  seed=b"failover-" + tag)
    frontend = ServiceFrontend(server, workers=2)
    net = NetworkServer(frontend, owns_endpoint=True, **net_kwargs)
    return server, frontend, net


class TestRetryPolicy:
    def test_backoff_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=0.5, jitter=0.5, seed=9)
        first = [policy.delays().next_delay() for _ in range(1)][0]
        again = policy.delays().next_delay()
        assert first == again  # same seed, same schedule
        schedule = policy.delays()
        delays = [schedule.next_delay() for _ in range(6)]
        # Jitter never exceeds +-50%, and the cap holds at every step.
        assert all(d <= 0.5 * 1.5 for d in delays)
        assert delays[0] <= 0.1 * 1.5

    def test_server_hint_is_a_floor(self):
        policy = RetryPolicy(base_delay_s=0.01, jitter=0.0, seed=0)
        schedule = policy.delays()
        assert schedule.next_delay(hint_ms=250) >= 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestEnrollmentAtMostOnce:
    def test_lost_ack_retry_does_not_duplicate(self, net_params, fast_scheme,
                                               population, watchdog):
        """Drop the first enrollment ack on the wire; the client's retry
        resends the *same* submission bytes and the server treats it as
        idempotent — exactly one record exists afterwards."""
        engine = IdentificationEngine(net_params, shards=2)
        _, frontend, net = _serve(engine, net_params, fast_scheme, b"dedup")
        device = BiometricDevice(net_params, fast_scheme, seed=b"dedup-dev")
        with net:
            host, port = net.address
            faults.install([{"point": "net.server.send", "style": "drop",
                             "times": 1}])
            with FailoverClient(
                    [(host, port)],
                    policy=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                                       jitter=0.0),
                    timeout_s=1.0) as client:
                ack = client.enroll(device, "solo",
                                    population.template(0))
            assert ack.accepted
            assert faults.fired("net.server.send") == 1
            assert client.retries == 1
        assert [r.user_id for r in engine] == ["solo"]

    def test_fresh_submission_for_same_id_still_refused(
            self, net_params, fast_scheme, population, watchdog):
        """The dedup is content-based, not name-based: a *different*
        submission for an enrolled id is refused, so retries can never
        silently replace someone's keys."""
        engine = IdentificationEngine(net_params, shards=2)
        _, frontend, net = _serve(engine, net_params, fast_scheme, b"dedup2")
        device = BiometricDevice(net_params, fast_scheme, seed=b"dedup2-dev")
        with net:
            host, port = net.address
            with FailoverClient([(host, port)], timeout_s=5.0) as client:
                assert client.enroll(device, "solo",
                                     population.template(0)).accepted
                # Same name, freshly minted keys -> refused, not replaced.
                ack = client.enroll(device, "solo", population.template(0))
                assert not ack.accepted
        assert len(engine) == 1


class TestTransientMapping:
    def test_read_deadline_maps_to_timeout(self, net_params, fast_scheme,
                                           population, watchdog):
        engine = IdentificationEngine(net_params, shards=2)
        _, frontend, net = _serve(engine, net_params, fast_scheme, b"to")
        device = BiometricDevice(net_params, fast_scheme, seed=b"to-dev")
        with net:
            host, port = net.address
            faults.install([{"point": "net.server.send", "style": "drop"}])
            with RemoteEndpoint.connect(host, port, timeout_s=0.3) as remote:
                with pytest.raises(RequestTimeoutError) as excinfo:
                    run_enrollment(device, remote, DuplexLink(), "t",
                                   population.template(0))
            # The typed error is both transient and a stdlib timeout.
            assert isinstance(excinfo.value, TransientError)
            assert isinstance(excinfo.value, TimeoutError)

    def test_overload_hint_reaches_the_client(self, net_params, fast_scheme,
                                              population, watchdog):
        engine = IdentificationEngine(net_params, shards=2)
        server = AuthenticationServer(net_params, fast_scheme, store=engine,
                                      seed=b"failover-ovl")
        release = threading.Event()
        original = server.handle_enrollment
        server.handle_enrollment = \
            lambda submission: (release.wait(10.0), original(submission))[1]
        frontend = ServiceFrontend(server, max_queue=1,
                                   submit_timeout_s=0.05)
        try:
            # One op wedges the batcher; the size-1 queue fills behind
            # it; the refusal must carry a backoff hint.
            futures = [frontend._submit("enroll", None)]
            deadline = time.monotonic() + 5.0
            with pytest.raises(ServiceOverloadError) as excinfo:
                while time.monotonic() < deadline:
                    futures.append(frontend._submit("enroll", None))
            assert excinfo.value.retry_after_ms >= 10
            assert frontend.retry_after_ms() >= 10
        finally:
            release.set()
            frontend.close()


class TestFailover:
    @pytest.mark.parametrize("plan", [None, CHAOS_PLAN],
                             ids=["no-faults", "chaos"])
    def test_primary_kill_mid_workload_zero_loss(self, net_params,
                                                 fast_scheme, population,
                                                 tmp_path, watchdog, plan):
        primary_engine = IdentificationEngine(
            net_params, shards=2, journal=journal_path(tmp_path / "primary"))
        standby_engine = IdentificationEngine(
            net_params, shards=2, journal=journal_path(tmp_path / "standby"))

        _, p_front, p_net = _serve(primary_engine, net_params, fast_scheme,
                                   b"ha")
        follower = None
        s_net = None
        try:
            p_net.start()
            p_host, p_port = p_net.address
            follower = JournalFollower(standby_engine, p_host, p_port,
                                       poll_interval_s=0.05)
            _, s_front, s_net = _serve(
                standby_engine, net_params, fast_scheme, b"ha",
                health_extra=follower.health_extra)
            s_net.start()
            s_host, s_port = s_net.address

            device = BiometricDevice(net_params, fast_scheme, seed=b"ha-dev")
            addresses = [(p_host, p_port), (s_host, s_port)]
            policy = RetryPolicy(max_attempts=6, base_delay_s=0.05,
                                 max_delay_s=0.5, seed=42)

            with FailoverClient(addresses, policy=policy,
                                timeout_s=2.0,
                                health_deadline_s=0.5) as enroller:
                for i, user_id in enumerate(population.user_ids()):
                    assert enroller.enroll(
                        device, user_id, population.template(i)).accepted

            deadline = time.monotonic() + 30
            while follower.applied_seq < N_USERS:
                assert time.monotonic() < deadline, "standby never caught up"
                time.sleep(0.02)
            assert follower.lag == 0

            # Replication parity before the storm: identical record sets.
            assert [r.user_id for r in standby_engine] == \
                   [r.user_id for r in primary_engine]
            health = follower.health_extra()
            assert health["follower"] and health["follower_lag"] == 0

            if plan is not None:
                faults.install(plan, seed=0)
            # Under the fault plan, enough requests that wire faults
            # land on workload replies, not only on replication polls.
            n_requests = 12 if plan is None else 48
            kill_after = n_requests // 3
            done = 0
            lock = threading.Lock()
            outcomes = []
            errors = []

            def kill_primary_then_count(i):
                nonlocal done
                with FailoverClient(addresses, policy=policy, timeout_s=2.0,
                                    health_deadline_s=0.5) as client:
                    user = i % N_USERS
                    run = client.identify(device,
                                          population.genuine_reading(user))
                    with lock:
                        outcomes.append(
                            (population.user_ids()[user], run.outcome))
                        done += 1
                        if done == kill_after:
                            p_net.close()  # the mid-workload primary kill

            threads = [threading.Thread(target=kill_primary_then_count,
                                        args=(i,), daemon=True)
                       for i in range(n_requests)]
            for t in threads:
                t.start()
                time.sleep(0.03)  # stagger so the kill lands mid-stream
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), "workload thread wedged"

            # Zero lost, zero wrongly answered.
            assert not errors
            assert len(outcomes) == n_requests
            for expected_id, outcome in outcomes:
                assert outcome.identified
                assert outcome.user_id == expected_id
            if plan is not None:
                assert faults.fired() >= 1, "the fault plan never fired"

            # The standby answers every pool user exactly as the primary.
            for user in range(N_USERS):
                probe = device.probe_sketch(
                    population.genuine_reading(user)).sketch
                assert [m.user_id for m in
                        standby_engine.find_by_sketch(probe)] == \
                    [m.user_id for m in primary_engine.find_by_sketch(probe)]
        finally:
            if follower is not None:
                follower.close()
            p_net.close()
            if s_net is not None:
                s_net.close()

    def test_advance_prefers_ready_endpoint(self, net_params, fast_scheme,
                                            population, watchdog):
        """With the first endpoint dead, the client lands on the live one
        and stays there."""
        engine = IdentificationEngine(net_params, shards=2)
        _, frontend, net = _serve(engine, net_params, fast_scheme, b"adv")
        device = BiometricDevice(net_params, fast_scheme, seed=b"adv-dev")
        with net:
            host, port = net.address
            # A dead address first: nothing listens on port 1.
            with FailoverClient(
                    [("127.0.0.1", 1), (host, port)],
                    policy=RetryPolicy(max_attempts=4, base_delay_s=0.01,
                                       jitter=0.0),
                    timeout_s=1.0, health_deadline_s=0.5) as client:
                ack = client.enroll(device, "adv-user",
                                    population.template(0))
                assert ack.accepted
                assert client.failovers >= 1
                assert client.current_address == (host, port)


class TestCircuitBreaker:
    """The per-endpoint breaker state machine, plus its integration
    points: routing around a degraded primary and the overall deadline
    bounding the whole retry loop."""

    def test_breaker_state_machine(self):
        from repro.net.resilience import _Breaker
        b = _Breaker(threshold=3, cooldown_s=1.0)
        assert b.state(0.0) == "closed"
        assert not b.record_failure(0.0)
        assert not b.record_failure(0.0)
        assert b.record_failure(0.0)  # third consecutive failure trips
        assert b.state(0.5) == "open"
        assert b.state(1.5) == "half-open"
        b.reopen(1.5)  # half-open probe failed: new cooldown
        assert b.state(2.0) == "open"
        assert b.opens == 2
        b.record_success()  # half-open probe succeeded: fully closed
        assert b.state(3.0) == "closed"
        assert b.failures == 0

    def test_success_resets_the_consecutive_count(self):
        from repro.net.resilience import _Breaker
        b = _Breaker(threshold=3, cooldown_s=1.0)
        for _ in range(5):
            b.record_failure(0.0)
            b.record_success()
        assert b.state(0.0) == "closed"
        assert b.opens == 0

    def test_consecutive_failures_open_the_breaker(self, net_params,
                                                   fast_scheme, population,
                                                   watchdog):
        """Against a single dead endpoint, the retry loop's consecutive
        transport failures trip that endpoint's breaker open."""
        device = BiometricDevice(net_params, fast_scheme, seed=b"brk-dev")
        with FailoverClient(
                [("127.0.0.1", 1)],
                policy=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                                   jitter=0.0),
                timeout_s=0.5, health_deadline_s=0.2,
                breaker_threshold=3, breaker_cooldown_s=30.0) as client:
            with pytest.raises(Exception):
                client.enroll(device, "brk-user", population.template(0))
            assert client.breaker_states() == ["open"]
            assert client.breaker_opens >= 1

    def test_overall_deadline_bounds_the_retry_loop(self, net_params,
                                                    fast_scheme, population,
                                                    watchdog):
        """With ``overall_deadline_s`` set, attempts plus backoff sleeps
        never overrun the caller's total budget — the loop gives up
        early instead of sleeping past it."""
        device = BiometricDevice(net_params, fast_scheme, seed=b"ovd-dev")
        policy = RetryPolicy(max_attempts=8, base_delay_s=0.5,
                             multiplier=2.0, jitter=0.0)
        with FailoverClient(
                [("127.0.0.1", 1)], policy=policy,
                timeout_s=0.5, health_deadline_s=0.2,
                overall_deadline_s=0.3) as client:
            start = time.monotonic()
            with pytest.raises(Exception):
                client.enroll(device, "ovd-user", population.template(0))
            elapsed = time.monotonic() - start
            # Without the deadline the backoff schedule alone is ~60s.
            assert elapsed < 1.5

    def test_routes_around_degraded_primary(self, net_params, fast_scheme,
                                            population, watchdog):
        """A primary limping through its degraded serial path still
        answers health probes — but flags itself, and a ready-preferring
        failover client picks the healthy standby instead."""
        p_engine = IdentificationEngine(net_params, shards=2)
        _, p_frontend, p_net = _serve(p_engine, net_params, fast_scheme,
                                      b"degp")
        s_engine = IdentificationEngine(net_params, shards=2)
        _, _, s_net = _serve(s_engine, net_params, fast_scheme, b"degs")
        device = BiometricDevice(net_params, fast_scheme, seed=b"deg-dev")
        with p_net, s_net:
            # Force the primary onto its degraded serial path.
            p_frontend._degraded.set()
            assert p_frontend.health_snapshot()["degraded"] is True
            with FailoverClient(
                    [p_net.address, s_net.address],
                    policy=RetryPolicy(max_attempts=4, base_delay_s=0.01,
                                       jitter=0.0),
                    timeout_s=1.0, health_deadline_s=0.5) as client:
                # The first request starts on the degraded primary; any
                # failover advance must land on the healthy standby.
                client._advance()
                assert client.current_address == s_net.address
