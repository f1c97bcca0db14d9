"""Benchmark: observability must cost <= 5% of service throughput.

The obs layer's contract is "near-zero cost": every counter increment,
histogram observation, and span record first checks a shared ``enabled``
flag, so an *instrumented* serving pass may run at most 5% slower than
a *disabled* one — the acceptance bound.  Each pass builds the same
stack with the same seeds and times serial and frontend phases of
identification and verification; obs is toggled between passes, and
the fastest of three per mode is kept so scheduler noise does not
masquerade as overhead.

Sizes here stay deliberately small — the bound is about the obs layer's
per-event cost, which is independent of database scale, and small runs
keep the repeat count affordable.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import build_stack, closed_loop
from repro import obs
from repro.core.params import SystemParams
from repro.engine.engine import IdentificationEngine
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import run_identification, run_verification
from repro.protocols.transport import DuplexLink
from repro.service.frontend import ServiceFrontend

OVERHEAD_CEILING = 0.05
POOL_USERS = 16
CLIENTS = 8


def _timed_pass() -> tuple[float, dict[str, int]]:
    """One serving pass: total timed seconds, and the observation count
    of each per-stage latency histogram."""
    params = SystemParams.paper_defaults(n=128)
    engine = IdentificationEngine(params, shards=4)
    device, server, population = build_stack(
        params, POOL_USERS, seed=2017, store=engine,
        filler=5_000 - POOL_USERS)
    user_ids = population.user_ids()
    devices = [BiometricDevice(params, server.scheme, seed=b"cli%d" % c)
               for c in range(CLIENTS)]

    def work(count: int, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [(user_ids[u], population.genuine_reading(int(u), rng))
                for u in rng.integers(0, POOL_USERS, size=count)]

    def identify(device, endpoint, item) -> None:
        expected, reading = item
        outcome = run_identification(device, endpoint, DuplexLink(),
                                     reading).outcome
        assert outcome.identified and outcome.user_id == expected, outcome

    def verify(device, endpoint, item) -> None:
        expected, reading = item
        outcome = run_verification(device, endpoint, DuplexLink(), expected,
                                   reading).outcome
        assert outcome.verified and outcome.user_id == expected, outcome

    # Warm-up: each pool key's verify table is built on its second use.
    warm_rng = np.random.default_rng(2018)
    for _ in range(2):
        for user in range(POOL_USERS):
            identify(device, server, (user_ids[user],
                     population.genuine_reading(user, warm_rng)))
    start = time.perf_counter()
    for op, item in [(identify, i) for i in work(64, 2019)] + \
            [(verify, i) for i in work(32, 2020)]:
        op(device, server, item)
    total = time.perf_counter() - start
    with ServiceFrontend(server, max_batch=64, batch_window_s=0.05,
                         batch_linger_s=0.004, workers=4) as frontend:
        for op, count, seed in ((identify, 64, 2021), (verify, 32, 2022)):
            total += closed_loop(
                CLIENTS, work(count, seed),
                lambda c, item: op(devices[c], frontend, item))
        stages = {
            "queue-wait": frontend.queue_wait_seconds.count,
            "batch-wait": frontend.batch_wait_seconds.count,
            "scan": engine.scan_seconds.count,
            "verify": server.key_tables.verify_seconds.count,
        }
    return total, stages


def test_obs_overhead_within_five_percent(benchmark):
    def measure():
        prior = obs.registry.enabled, obs.tracer.enabled
        best: dict[bool, tuple[float, dict]] = {}
        try:
            for _ in range(3):
                for enabled in (False, True):
                    obs.set_enabled(enabled)
                    total, stages = _timed_pass()
                    if enabled not in best or total < best[enabled][0]:
                        best[enabled] = (total, stages)
        finally:
            obs.configure(metrics_enabled=prior[0],
                          tracing_enabled=prior[1])
        return best[True], best[False]

    (on_s, on_stages), (off_s, off_stages) = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    overhead = on_s / off_s - 1.0
    assert overhead <= OVERHEAD_CEILING, (
        f"observability costs {overhead * 100:.1f}% of service "
        f"throughput; the obs layer promises <= {OVERHEAD_CEILING * 100:.0f}%"
    )
    # The comparison must be real: the instrumented pass recorded every
    # per-stage histogram and the disabled pass recorded none.
    assert all(on_stages.values()), on_stages
    assert not any(off_stages.values()), off_stages
