"""ServiceFrontend: drop-in handler surface, micro-batching, backpressure,
shutdown semantics, and — the load-bearing satellite — concurrency parity:
a threaded workload through the frontend must produce byte-identical
protocol outcomes and the same audit-kind multiset as the serial run.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.exceptions import ServiceClosedError, ServiceOverloadError
from repro.protocols.device import BiometricDevice
from repro.protocols.messages import IdentificationRequest
from repro.protocols.runners import (
    run_enrollment,
    run_identification,
    run_verification,
)
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink
from repro.service import ServiceFrontend


@pytest.fixture
def stack(paper_params, fast_scheme):
    """Server + population + per-user devices (deterministic per user)."""
    population = UserPopulation(paper_params, size=6,
                                noise=BoundedUniformNoise(paper_params.t),
                                seed=11)
    server = AuthenticationServer(paper_params, fast_scheme, seed=b"svc-srv")
    devices = {
        user_id: BiometricDevice(paper_params, fast_scheme,
                                 seed=user_id.encode() + b"-dev")
        for user_id in population.user_ids()
    }
    return server, population, devices


def _frontend(server, **kwargs) -> ServiceFrontend:
    kwargs.setdefault("batch_window_s", 0.01)
    kwargs.setdefault("batch_linger_s", 0.002)
    kwargs.setdefault("result_timeout_s", 30.0)
    return ServiceFrontend(server, **kwargs)


class TestDropInSurface:
    def test_runners_drive_frontend_like_a_server(self, stack):
        server, population, devices = stack
        user_id = population.user_ids()[0]
        device = devices[user_id]
        with _frontend(server) as frontend:
            run = run_enrollment(device, frontend, DuplexLink(), user_id,
                                 population.template(0))
            assert run.outcome.accepted
            run = run_identification(device, frontend, DuplexLink(),
                                     population.genuine_reading(0))
            assert run.outcome.identified
            assert run.outcome.user_id == user_id
            run = run_verification(device, frontend, DuplexLink(), user_id,
                                   population.genuine_reading(0))
            assert run.outcome.verified
            # A stranger still gets ⊥ through the pipeline.
            run = run_identification(device, frontend, DuplexLink(),
                                     population.impostor_reading())
            assert not run.outcome.identified
        stats = frontend.stats()
        assert stats.completed == stats.submitted
        assert stats.identify_batches >= 1

    def test_delegation_surface(self, stack):
        server, population, devices = stack
        with _frontend(server) as frontend:
            assert frontend.params is server.params
            assert frontend.scheme is server.scheme
            assert frontend.store is server.store
            assert frontend.engine_stats().enrolled == len(server.store)
            assert frontend.outstanding_sessions() == 0
            assert frontend.audit_log() == server.audit_log()

    def test_handler_errors_propagate_and_pipeline_survives(self, stack):
        server, population, devices = stack
        user_id = population.user_ids()[0]
        device = devices[user_id]
        with _frontend(server) as frontend:
            bad = IdentificationRequest(
                sketch=np.zeros(3, dtype=np.int64))  # wrong dimension
            with pytest.raises(Exception):
                frontend.handle_identification_request(bad)
            # The batcher must outlive a poisoned request.
            run = run_enrollment(device, frontend, DuplexLink(), user_id,
                                 population.template(0))
            assert run.outcome.accepted

    def test_poisoned_probe_fails_alone_not_its_batchmates(self, stack):
        """A malformed probe coalesced with a genuine one must error only
        its own caller — batching never amplifies one client's garbage
        into collateral failures."""
        server, population, devices = stack
        user_id = population.user_ids()[0]
        device = devices[user_id]
        run_enrollment(device, server, DuplexLink(), user_id,
                       population.template(0))
        with _frontend(server, batch_linger_s=0.05,
                       batch_window_s=0.2) as frontend:
            bad = frontend._submit("identify", IdentificationRequest(
                sketch=np.zeros(3, dtype=np.int64)))
            good = frontend._submit("identify", device.probe_sketch(
                population.genuine_reading(0)))
            with pytest.raises(Exception):
                bad.result(timeout=10.0)
            reply = good.result(timeout=10.0)  # challenged, not poisoned
            assert hasattr(reply, "session_id")
        assert frontend.stats().max_batch == 2  # they shared a batch


class TestBackpressureAndShutdown:
    def test_overload_raises_instead_of_queueing_unbounded(self, stack):
        server, _, _ = stack
        release = threading.Event()
        original = server.handle_enrollment

        def stalled(submission):
            release.wait(10.0)
            return original(submission)

        server.handle_enrollment = stalled
        frontend = _frontend(server, max_queue=1, submit_timeout_s=0.05)
        try:
            # First op occupies the batcher; the queue (size 1) fills
            # behind it; the next submit must be refused, not absorbed.
            futures = [frontend._submit("enroll", None)]
            deadline = time.monotonic() + 5.0
            with pytest.raises(ServiceOverloadError):
                while time.monotonic() < deadline:
                    futures.append(frontend._submit("enroll", None))
            assert frontend.stats().rejected == 1
        finally:
            release.set()
            frontend.close()

    def test_close_is_idempotent_and_rejects_new_work(self, stack):
        server, population, devices = stack
        frontend = _frontend(server)
        frontend.close()
        frontend.close()
        with pytest.raises(ServiceClosedError):
            frontend.handle_identification_request(
                IdentificationRequest(sketch=np.zeros(
                    server.params.n, dtype=np.int64)))

    def test_queued_work_completes_before_shutdown(self, stack):
        """FIFO guarantees in-flight requests finish ahead of the stop
        sentinel — close() drains, it does not drop."""
        server, population, devices = stack
        user_id = population.user_ids()[0]
        frontend = _frontend(server)
        submission = devices[user_id].enroll(user_id, population.template(0))
        future = frontend._submit("enroll", submission)
        frontend.close()
        assert future.result(timeout=5.0).accepted


class TestConcurrencyParity:
    """Satellite: threaded-through-frontend == serial, byte for byte."""

    def _run_workload(self, server_factory, population, paper_params,
                      fast_scheme, endpoint_factory, threads: int):
        """Enroll + identify every user; returns (outcome bytes, audit)."""
        server = server_factory()
        users = population.user_ids()
        devices = {
            user_id: BiometricDevice(paper_params, fast_scheme,
                                     seed=user_id.encode() + b"-par")
            for user_id in users
        }
        outcomes: dict[str, bytes] = {}
        lock = threading.Lock()
        errors: list[BaseException] = []

        def flow(endpoint, user_id: str, index: int) -> None:
            try:
                enroll = run_enrollment(devices[user_id], endpoint,
                                        DuplexLink(), user_id,
                                        population.template(index))
                identify = run_identification(
                    devices[user_id], endpoint, DuplexLink(),
                    population.genuine_reading(
                        index, np.random.default_rng(index)))
                with lock:
                    outcomes[user_id] = (enroll.outcome.encode()
                                         + identify.outcome.encode())
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        with endpoint_factory(server) as endpoint:
            if threads == 1:
                for index, user_id in enumerate(users):
                    flow(endpoint, user_id, index)
            else:
                per_thread = [users[t::threads] for t in range(threads)]
                workers = [
                    threading.Thread(target=lambda t=t: [
                        flow(endpoint, user_id, users.index(user_id))
                        for user_id in per_thread[t]
                    ])
                    for t in range(threads)
                ]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
        if errors:
            raise errors[0]
        kinds = Counter(e.kind for e in server.audit_log())
        return outcomes, kinds

    class _Direct:
        """Endpoint context manager around a bare server (serial leg)."""

        def __init__(self, server):
            self.server = server

        def __enter__(self):
            return self.server

        def __exit__(self, *exc_info):
            return None

    def test_threaded_frontend_matches_serial_run(self, stack, paper_params,
                                                  fast_scheme):
        _, population, _ = stack

        def server_factory():
            return AuthenticationServer(paper_params, fast_scheme,
                                        seed=b"parity-srv")

        serial_outcomes, serial_kinds = self._run_workload(
            server_factory, population, paper_params, fast_scheme,
            self._Direct, threads=1)
        threaded_outcomes, threaded_kinds = self._run_workload(
            server_factory, population, paper_params, fast_scheme,
            lambda server: _frontend(server, workers=3), threads=3)

        assert threaded_outcomes == serial_outcomes  # byte-identical
        assert threaded_kinds == serial_kinds        # audit multiset
        assert serial_kinds["enroll-ok"] == len(population)
        assert serial_kinds["identify-ok"] == len(population)
