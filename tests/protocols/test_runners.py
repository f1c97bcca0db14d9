"""End-to-end protocol integration tests (enrollment, both identification
modes, verification) over the full device/server/transport stack."""

import numpy as np
import pytest

from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.params import SystemParams
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import (
    run_baseline_identification,
    run_enrollment,
    run_identification,
    run_verification,
)
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink


@pytest.fixture
def params():
    return SystemParams.paper_defaults(n=200)


@pytest.fixture
def population(params):
    return UserPopulation(params, size=8,
                          noise=BoundedUniformNoise(params.t), seed=21)


@pytest.fixture
def stack(params, fast_scheme, population):
    device = BiometricDevice(params, fast_scheme, seed=b"device")
    server = AuthenticationServer(params, fast_scheme, seed=b"server")
    for i, user_id in enumerate(population.user_ids()):
        run = run_enrollment(device, server, DuplexLink(), user_id,
                             population.template(i))
        assert run.outcome.accepted
    return device, server


class TestEnrollment:
    def test_duplicate_enrollment_refused(self, stack, population):
        device, server = stack
        run = run_enrollment(device, server, DuplexLink(), "user-0000",
                             population.template(0))
        assert not run.outcome.accepted

    def test_enrollment_stores_all_users(self, stack):
        _, server = stack
        assert len(server.store) == 8

    def test_private_key_never_reaches_server(self, stack, population):
        """The server's records contain only (ID, pk, P)."""
        _, server = stack
        for record in server.store:
            assert set(vars(record)) == {"user_id", "verify_key", "helper_data"}


class TestIdentification:
    def test_each_user_identified(self, stack, population):
        device, server = stack
        for i, expected_id in enumerate(population.user_ids()):
            run = run_identification(device, server, DuplexLink(),
                                     population.genuine_reading(i))
            assert run.outcome.identified
            assert run.outcome.user_id == expected_id

    def test_impostor_rejected(self, stack, population):
        device, server = stack
        run = run_identification(device, server, DuplexLink(),
                                 population.impostor_reading())
        assert not run.outcome.identified
        assert run.outcome.user_id is None

    def test_phase_timings_present(self, stack, population):
        device, server = stack
        run = run_identification(device, server, DuplexLink(),
                                 population.genuine_reading(0))
        assert set(run.timings_s) == {"sketch", "search", "respond", "verify"}
        assert all(t >= 0 for t in run.timings_s.values())

    def test_wire_accounting(self, stack, population, params):
        device, server = stack
        run = run_identification(device, server, DuplexLink(),
                                 population.genuine_reading(0))
        # sketch (n*8) + helper (~n*8) dominate the wire cost.
        assert run.wire_bytes > 2 * params.n * 8
        assert run.messages == 4
        assert run.simulated_latency_s > 0

    def test_session_not_replayable(self, stack, population, fast_scheme):
        """A consumed session id must not verify twice."""
        device, server = stack
        bio = population.genuine_reading(0)
        request = device.probe_sketch(bio)
        challenge = server.handle_identification_request(request)
        response = device.respond_identification(
            bio, challenge.helper_data, challenge.challenge,
            challenge.session_id,
        )
        first = server.handle_identification_response(response)
        assert first.identified
        second = server.handle_identification_response(response)
        assert not second.identified


class TestSketchLifecycle:
    @pytest.fixture
    def engine_stack(self, params, fast_scheme, population):
        server = AuthenticationServer.with_engine(params, fast_scheme,
                                                  shards=2, seed=b"server")
        device = BiometricDevice(params, fast_scheme, seed=b"device")
        for i, user_id in enumerate(population.user_ids()):
            run = run_enrollment(device, server, DuplexLink(), user_id,
                                 population.template(i))
            assert run.outcome.accepted
        return device, server

    def test_rotate_then_identify_uses_new_sketch(self, engine_stack,
                                                  population):
        from repro.protocols.messages import RotateRequest

        device, server = engine_stack
        sub = device.enroll("user-0000", population.template(0))
        request = RotateRequest(user_id=sub.user_id,
                                verify_key=sub.verify_key,
                                helper_data=sub.helper_data,
                                supersede=True)
        ack = server.handle_rotate(request)
        assert ack.accepted and ack.version_number() == 1
        # Identification still answers through the new active sketch.
        run = run_identification(device, server, DuplexLink(),
                                 population.genuine_reading(0))
        assert run.outcome.identified
        assert run.outcome.user_id == "user-0000"

    def test_rotate_resubmission_is_idempotent(self, engine_stack,
                                               population):
        from repro.protocols.messages import RotateRequest

        device, server = engine_stack
        sub = device.enroll("user-0001", population.template(1))
        request = RotateRequest(user_id=sub.user_id,
                                verify_key=sub.verify_key,
                                helper_data=sub.helper_data,
                                supersede=True)
        first = server.handle_rotate(request)
        again = server.handle_rotate(request)  # the lost-ack retry
        assert first.accepted and again.accepted
        assert first.version_number() == again.version_number() == 1
        assert len(server.store.get_versions("user-0001")) == 2
        assert [e.kind for e in server.audit_log("rotate-dedup")]

    def test_rotate_unknown_identity_refused(self, engine_stack,
                                             population):
        from repro.protocols.messages import RotateRequest

        device, server = engine_stack
        sub = device.enroll("stranger", population.impostor_reading())
        ack = server.handle_rotate(RotateRequest(
            user_id=sub.user_id, verify_key=sub.verify_key,
            helper_data=sub.helper_data, supersede=False))
        assert not ack.accepted
        assert ack.version_number() is None

    def test_revoke_takes_identity_out_of_service(self, engine_stack,
                                                  population):
        from repro.protocols.messages import RevokeRequest

        device, server = engine_stack
        ack = server.handle_revoke(RevokeRequest.make("user-0002"))
        assert ack.revoked_count() == 1
        # Idempotent: the retry reports 0 newly revoked, still succeeds.
        assert server.handle_revoke(
            RevokeRequest.make("user-0002")).revoked_count() == 0
        run = run_identification(device, server, DuplexLink(),
                                 population.genuine_reading(2))
        assert not run.outcome.identified
        run = run_verification(device, server, DuplexLink(), "user-0002",
                               population.genuine_reading(2))
        assert not run.outcome.verified


class TestBaselineIdentification:
    @pytest.mark.parametrize("pessimistic", [True, False],
                             ids=["paper-model", "optimistic"])
    def test_identifies_each_user(self, stack, population, pessimistic):
        device, server = stack
        for i in (0, 3, 7):
            run = run_baseline_identification(
                device, server, DuplexLink(), population.genuine_reading(i),
                pessimistic=pessimistic,
            )
            assert run.outcome.identified
            assert run.outcome.user_id == population.user_ids()[i]

    def test_impostor_rejected(self, stack, population):
        device, server = stack
        run = run_baseline_identification(device, server, DuplexLink(),
                                          population.impostor_reading())
        assert not run.outcome.identified

    def test_ships_entire_database(self, stack, population, params):
        """Fig. 2's communication cost: all N helper records on the wire."""
        device, server = stack
        run = run_baseline_identification(device, server, DuplexLink(),
                                          population.genuine_reading(0))
        assert run.wire_bytes > 8 * params.n * 8  # 8 users x helper size

    def test_costs_more_than_proposed(self, stack, population):
        device, server = stack
        bio = population.genuine_reading(0)
        proposed = run_identification(device, server, DuplexLink(), bio)
        baseline = run_baseline_identification(device, server, DuplexLink(),
                                               bio)
        assert baseline.compute_time_s > proposed.compute_time_s
        assert baseline.wire_bytes > proposed.wire_bytes


class TestVerification:
    def test_genuine_verified(self, stack, population):
        device, server = stack
        run = run_verification(device, server, DuplexLink(), "user-0004",
                               population.genuine_reading(4))
        assert run.outcome.verified
        assert run.outcome.user_id == "user-0004"

    def test_wrong_biometric_rejected(self, stack, population):
        device, server = stack
        run = run_verification(device, server, DuplexLink(), "user-0004",
                               population.genuine_reading(5))
        assert not run.outcome.verified

    def test_unknown_identity_rejected(self, stack, population):
        device, server = stack
        run = run_verification(device, server, DuplexLink(), "ghost",
                               population.genuine_reading(0))
        assert not run.outcome.verified

    def test_verification_close_to_identification_cost(self, stack,
                                                       population):
        """The paper's headline: identification ~ verification time."""
        device, server = stack
        bio = population.genuine_reading(2)
        ver = run_verification(device, server, DuplexLink(), "user-0002", bio)
        ident = run_identification(device, server, DuplexLink(), bio)
        assert ident.compute_time_s < 5 * max(ver.compute_time_s, 1e-4)


class TestCrossSchemeStack:
    @pytest.mark.parametrize("scheme_name",
                             ["ecdsa-p-256", "schnorr-p-256"])
    def test_identification_with_ec_schemes(self, params, population,
                                            scheme_name):
        from repro.crypto.signatures import get_scheme

        scheme = get_scheme(scheme_name)
        device = BiometricDevice(params, scheme, seed=b"d2")
        server = AuthenticationServer(params, scheme, seed=b"s2")
        for i, user_id in enumerate(population.user_ids()[:3]):
            run_enrollment(device, server, DuplexLink(), user_id,
                           population.template(i))
        run = run_identification(device, server, DuplexLink(),
                                 population.genuine_reading(1))
        assert run.outcome.identified
        assert run.outcome.user_id == "user-0001"
