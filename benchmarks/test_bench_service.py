"""Benchmark: concurrent micro-batched serving vs the serial loop.

The service layer exists so concurrent identification traffic stops
paying one full sketch scan per request.  This bench drives one engine
and signature scheme two ways: (a) one client calling the server
directly, one request at a time, and (b) ``clients`` closed-loop threads
through the :class:`~repro.service.frontend.ServiceFrontend`.  It
asserts the acceptance floor: at serving scale (100k enrolled records,
well past the criterion's 50k), the micro-batched frontend sustains
>= 3x the identifications/sec of the serial loop.  Every identification
in both phases is checked to land on the presented user, so the speedup
is parity-guaranteed.

Set ``REPRO_BENCH_SMOKE=1`` (the CI service-smoke job does) to run at
reduced sizes; the floor drops with the database size because the scan
the batcher amortises is exactly what shrinks (at 30k records the fixed
crypto cost dominates, so >= 1.25x is the honest bound there).
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import build_stack, closed_loop
from repro.core.params import SystemParams
from repro.engine.engine import IdentificationEngine
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import run_identification
from repro.protocols.transport import DuplexLink
from repro.service.frontend import ServiceFrontend

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: (n_users, n_requests, clients, speedup floor) per mode.
N_USERS = 30_000 if SMOKE else 100_000
N_REQUESTS = 128 if SMOKE else 256
CLIENTS = 16 if SMOKE else 32
SPEEDUP_FLOOR = 1.25 if SMOKE else 3.0
POOL_USERS = 16


def test_frontend_speedup_floor(benchmark):
    """Acceptance floor: micro-batched frontend >= 3x the serial loop
    (>= 1.25x at smoke sizes) on one engine, one scheme."""
    params = SystemParams.paper_defaults(n=128)
    device, server, population = build_stack(
        params, POOL_USERS, seed=2017,
        store=IdentificationEngine(params, shards=4),
        filler=N_USERS - POOL_USERS)
    user_ids = population.user_ids()
    devices = [BiometricDevice(params, server.scheme, seed=b"cli%d" % c)
               for c in range(CLIENTS)]

    def readings(seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [(user_ids[u], population.genuine_reading(int(u), rng))
                for u in rng.integers(0, POOL_USERS, size=N_REQUESTS)]

    def identify(device, endpoint, item) -> None:
        expected, reading = item
        outcome = run_identification(device, endpoint, DuplexLink(),
                                     reading).outcome
        assert outcome.identified and outcome.user_id == expected, outcome

    # Warm-up outside the timers: every pool key's verify table is built
    # on its second use, and the scan kernels warm on the first.
    warm_rng = np.random.default_rng(2018)
    for _ in range(2):
        for user in range(POOL_USERS):
            identify(device, server, (user_ids[user],
                     population.genuine_reading(user, warm_rng)))

    def measure():
        serial_work = readings(2019)
        start = time.perf_counter()
        for item in serial_work:
            identify(device, server, item)
        serial_s = time.perf_counter() - start
        with ServiceFrontend(server, max_batch=64, batch_window_s=0.05,
                             batch_linger_s=0.004, workers=4,
                             max_queue=max(256, 2 * CLIENTS)) as frontend:
            frontend_s = closed_loop(
                CLIENTS, readings(2020),
                lambda c, item: identify(devices[c], frontend, item))
            return serial_s, frontend_s, frontend.stats().mean_batch

    serial_s, frontend_s, mean_batch = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    speedup = serial_s / frontend_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"frontend only x{speedup:.2f} over the serial loop at "
        f"N={N_USERS}; the service layer promises >= {SPEEDUP_FLOOR}x"
    )
    # The speedup must come from real coalescing, not timer noise.
    assert mean_batch >= CLIENTS / 2
