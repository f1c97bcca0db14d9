"""Rep correctness at its boundary, through the full engine path.

Dodis et al.'s correctness condition for a fuzzy extractor: a reading
within distance ``t`` of the enrolled template reproduces the key.  The
core layer checks the sketch condition directly; here the whole stack
is held to it.  Users enroll through the server onto a sharded
identification engine (in process, or through the service frontend),
then a reading at Chebyshev distance exactly ``t`` on every coordinate
must identify its user, and the same reading pushed to ``t + 1`` on a
single coordinate must not identify anyone.
"""

import numpy as np
import pytest

from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.numberline import NumberLine
from repro.engine.engine import IdentificationEngine
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import run_enrollment, run_identification
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink
from repro.service.frontend import ServiceFrontend

N_USERS = 4


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("frontend", [False, True],
                         ids=["in-process", "frontend"])
def test_rep_boundary_through_the_engine(paper_params, fast_scheme, shards,
                                         frontend, watchdog):
    t = paper_params.t
    line = NumberLine(paper_params)
    population = UserPopulation(paper_params, size=N_USERS,
                                noise=BoundedUniformNoise(t), seed=7)
    server = AuthenticationServer(
        paper_params, fast_scheme,
        store=IdentificationEngine(paper_params, shards=shards),
        seed=b"rep-boundary")
    endpoint = ServiceFrontend(server, workers=2) if frontend else server
    device = BiometricDevice(paper_params, fast_scheme, seed=b"rep-dev")
    signs = np.random.default_rng(11).choice([-1, 1],
                                             size=(N_USERS, paper_params.n))
    try:
        for i, user_id in enumerate(population.user_ids()):
            assert run_enrollment(device, endpoint, DuplexLink(), user_id,
                                  population.template(i)).outcome.accepted
        for i, user_id in enumerate(population.user_ids()):
            offset = t * signs[i]
            at_t = line.reduce(population.template(i) + offset)
            assert population.chebyshev_to_template(i, at_t) == t
            outcome = run_identification(device, endpoint, DuplexLink(),
                                         at_t).outcome
            assert outcome.identified and outcome.user_id == user_id

            offset[i] += signs[i, i]  # one coordinate at t + 1
            beyond = line.reduce(population.template(i) + offset)
            assert population.chebyshev_to_template(i, beyond) == t + 1
            outcome = run_identification(device, endpoint, DuplexLink(),
                                         beyond).outcome
            assert not outcome.identified
    finally:
        if frontend:
            endpoint.close()
