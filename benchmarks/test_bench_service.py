"""Benchmark: concurrent micro-batched serving vs the serial loop.

The service layer exists so concurrent identification traffic stops
paying one full sketch scan per request.  This bench drives one engine
and signature scheme two ways: (a) one client calling the server
directly, one request at a time, and (b) ``clients`` closed-loop threads
through the :class:`~repro.service.frontend.ServiceFrontend`, at serving
scale (100k enrolled records).  Every identification in both phases is
checked to land on the presented user.

What it asserts is a count, read from the engine's own scan counter: the
serial loop runs exactly one scan per identification, and the frontend
coalesces them into at most ``ceil(requests / (clients / 2))`` scans.
The wall-clock ratio of the two phases is printed, not asserted: it
divides two timings taken moments apart on a host whose speed drifts,
and it shrinks whenever the single-probe scan gets faster.  The
throughput claim lives in ``bench/compare.py`` (``identify-100k``
``capacity_per_s``).

Set ``REPRO_BENCH_SMOKE=1`` (the CI service-smoke job does) to run at
reduced sizes.
"""

from __future__ import annotations

import math
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

#: (n_users, n_requests, clients) per mode.
N_USERS = 30_000 if SMOKE else 100_000
N_REQUESTS = 128 if SMOKE else 256
CLIENTS = 16 if SMOKE else 32
POOL_USERS = 16


def test_frontend_speedup_floor(benchmark):
    """The frontend serves the same identifications in at most
    ``ceil(N_REQUESTS / (CLIENTS / 2))`` scans; the serial loop pays one
    per request."""
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

    engine = server.store

    def scans_during(run) -> tuple[int, float]:
        """Engine scan batches and wall seconds spent by ``run()``."""
        before = engine.stats().batches_served
        start = time.perf_counter()
        run()
        return (engine.stats().batches_served - before,
                time.perf_counter() - start)

    def measure():
        serial_work = readings(2019)
        serial_scans, serial_s = scans_during(
            lambda: [identify(device, server, item) for item in serial_work])
        with ServiceFrontend(server, max_batch=64, batch_window_s=0.05,
                             batch_linger_s=0.004, workers=4,
                             max_queue=max(256, 2 * CLIENTS)) as frontend:
            frontend_scans, frontend_s = scans_during(lambda: closed_loop(
                CLIENTS, readings(2020),
                lambda c, item: identify(devices[c], frontend, item)))
            mean_batch = frontend.stats().mean_batch
        return serial_scans, serial_s, frontend_scans, frontend_s, mean_batch

    serial_scans, serial_s, frontend_scans, frontend_s, mean_batch = \
        benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"serial loop {serial_s:.2f} s in {serial_scans} scans; "
          f"frontend {frontend_s:.2f} s in {frontend_scans} scans; "
          f"wall-clock ratio x{serial_s / frontend_s:.2f} (not asserted)")
    assert serial_scans == N_REQUESTS
    assert frontend_scans <= math.ceil(N_REQUESTS / (CLIENTS / 2)), (
        f"frontend ran {frontend_scans} scans for {N_REQUESTS} requests "
        f"from {CLIENTS} clients; coalescing should need at most "
        f"{math.ceil(N_REQUESTS / (CLIENTS / 2))}"
    )
    assert mean_batch >= CLIENTS / 2
