"""Shared fixtures for the benchmark suite.

Benchmarks are pytest-benchmark tests; run them with::

    pytest benchmarks/ --benchmark-only

Protocol-level benches use ``benchmark.pedantic`` with a small round count
because a single baseline-identification round at a 100-user database is
itself hundreds of signature operations.

Stacks are built once per module (scope="module") — enrollment of a
5000-dimension population is itself seconds of work and is benchmarked
separately.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.extractor import HelperData
from repro.core.params import SystemParams
from repro.crypto.dsa import Dsa
from repro.crypto.dsa_groups import GROUP_1024
from repro.protocols.database import UserRecord
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import run_enrollment
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink


def paper_scheme() -> Dsa:
    """DSA with paper-era parameters (Table II: 'DSA')."""
    return Dsa(GROUP_1024)


def build_stack(params: SystemParams, n_users: int, seed: int = 0,
                scheme=None, store=None, filler: int = 0):
    """Enroll ``n_users`` synthetic users; returns (device, server, population).

    ``scheme`` defaults to the paper's DSA and ``store`` to the server's
    default engine.  ``filler`` pads the store to serving scale with
    uniform sketches (what independent templates yield), which are
    never probed and never match.
    """
    scheme = scheme or paper_scheme()
    population = UserPopulation(
        params, size=n_users, noise=BoundedUniformNoise(params.t), seed=seed
    )
    device = BiometricDevice(params, scheme, seed=b"bench-device")
    server = AuthenticationServer(params, scheme, store=store,
                                  seed=b"bench-server")
    for i, user_id in enumerate(population.user_ids()):
        run = run_enrollment(device, server, DuplexLink(), user_id,
                             population.template(i))
        assert run.outcome.accepted
    if filler:
        half = params.interval_width // 2
        rows = np.random.default_rng(seed).integers(
            -half, half + 1, size=(filler, params.n), dtype=np.int64)
        server.store.add_many([
            UserRecord(f"filler-{i}", b"", HelperData(
                movements=row, tag=b"", seed=b"").to_bytes())
            for i, row in enumerate(rows)])
    return device, server, population


def closed_loop(clients: int, work: list, op) -> float:
    """Split ``work`` across ``clients`` threads that start together and
    each call ``op(client, item)`` back to back; returns the wall-clock
    seconds until the last finishes.  A client's error is re-raised."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def client(c: int) -> None:
        try:
            barrier.wait()
            for item in work[c::clients]:
                op(c, item)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


@pytest.fixture(scope="module")
def bench_rng():
    return np.random.default_rng(2017)
