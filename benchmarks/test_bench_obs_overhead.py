"""Benchmark: observability must cost <= 5% of service throughput.

The obs layer's contract is "near-zero cost": every counter increment,
histogram observation, and span record first checks a shared ``enabled``
flag, so an *instrumented* serving pass may run at most 5% slower than
a *disabled* one — the acceptance bound.  Each pass builds the same
stack with the same seeds and times a serial phase and two frontend
phases (identification, verification); obs is toggled between passes.
Each mode's cost is the sum over phases of that phase's fastest run in
``ALTERNATIONS`` passes, so scheduler noise does not masquerade as
overhead: the frontend phases' batching spreads them by about 10% from
pass to pass, while the true overhead is a few percent.

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
#: Passes per mode, alternating disabled/instrumented.
ALTERNATIONS = 7


def _timed_pass() -> tuple[list[float], dict[str, int]]:
    """One serving pass: the timed seconds of each phase (serial, then
    frontend identification and verification), and the observation
    count of each per-stage latency histogram."""
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
    phases = [time.perf_counter() - start]
    with ServiceFrontend(server, max_batch=64, batch_window_s=0.05,
                         batch_linger_s=0.004, workers=4) as frontend:
        for op, count, seed in ((identify, 64, 2021), (verify, 32, 2022)):
            phases.append(closed_loop(
                CLIENTS, work(count, seed),
                lambda c, item: op(devices[c], frontend, item)))
        stages = {
            "queue-wait": frontend.queue_wait_seconds.count,
            "batch-wait": frontend.batch_wait_seconds.count,
            "scan": engine.scan_seconds.count,
            "verify": server.key_tables.verify_seconds.count,
        }
    return phases, stages


def test_obs_overhead_within_five_percent(benchmark):
    def measure():
        prior = obs.registry.enabled, obs.tracer.enabled
        best: dict[bool, list[float]] = {}
        stages: dict[bool, list[dict]] = {False: [], True: []}
        try:
            for _ in range(ALTERNATIONS):
                for enabled in (False, True):
                    obs.set_enabled(enabled)
                    phases, counts = _timed_pass()
                    best[enabled] = phases if enabled not in best else [
                        min(a, b) for a, b in zip(best[enabled], phases)]
                    stages[enabled].append(counts)
        finally:
            obs.configure(metrics_enabled=prior[0],
                          tracing_enabled=prior[1])
        return (sum(best[True]), stages[True]), \
            (sum(best[False]), stages[False])

    (on_s, on_stages), (off_s, off_stages) = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    overhead = on_s / off_s - 1.0
    assert overhead <= OVERHEAD_CEILING, (
        f"observability costs {overhead * 100:.1f}% of service "
        f"throughput; the obs layer promises <= {OVERHEAD_CEILING * 100:.0f}%"
    )
    # The comparison must be real: every instrumented pass recorded
    # every per-stage histogram and no disabled pass recorded any.
    assert all(all(counts.values()) for counts in on_stages), on_stages
    assert not any(any(counts.values()) for counts in off_stages), off_stages
