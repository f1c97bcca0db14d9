"""Overload over TCP: typed sheds, honest accounting, adaptive batching.

A test-local paced endpoint gives identification scans a deterministic
cost, so capacity is pinned whatever the host and offered load past it
builds a genuine standing queue.  Two checks ride on it:

* **the overload contract** — load scheduled at three times the
  measured sustainable rate, each request carrying a tight budget, a
  generous one or none.  Every request must be answered, shed as
  expired or shed as over capacity; every answer must be correct; only
  requests with a budget may expire; every over-capacity shed carries a
  retry hint; and in-deadline goodput holds at least 70% of the
  sustainable rate.  The schedule is offered by 64 client connections,
  each sending its next request once its last is answered, so the rate
  realised is what they sustain (about 1.25x on a 2-core host);
* **adaptive linger** — under bursts whose arrivals are spaced wider
  than the static linger, the static batcher scans a burst's first
  arrival alone and needs a second scan for the rest, while the adaptive
  controller grows its linger past the gap and serves the burst in one
  scan, so its p99 must be lower.
"""

import itertools
import threading
import time

import numpy as np
import pytest

from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.params import SystemParams
from repro.engine.engine import IdentificationEngine
from repro.exceptions import (
    ConnectionLostError,
    DeadlineExceededError,
    RequestTimeoutError,
    ServiceOverloadError,
)
from repro.net.client import RemoteEndpoint
from repro.net.server import NetworkServer
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import run_enrollment, run_identification
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink
from repro.service.frontend import ServiceFrontend

POOL_USERS = 8
#: Paced cost of one probe in the overload check: capacity ~1/COST.
PROBE_COST_S = 0.016
#: Batch cap under overload: one paced quantum is MAX_BATCH x COST.
MAX_BATCH = 8
#: The sojourn bound the adaptive frontend steers (and sheds) toward:
#: two paced quanta, so batch granularity alone never reads as
#: congestion.
LATENCY_TARGET_S = 2 * MAX_BATCH * PROBE_COST_S


class _Paced:
    """Delegate to a server, adding a fixed cost to each scan call.

    ``per_batch_s`` is paid once per scan, whatever its size (the regime
    where coalescing amortises); ``per_probe_s`` is paid per probe (a
    hard ceiling coalescing cannot raise).
    """

    def __init__(self, server: AuthenticationServer) -> None:
        self._server = server
        self.per_batch_s = 0.0
        self.per_probe_s = 0.0

    def handle_identification_batch(self, requests):
        time.sleep(self.per_batch_s + self.per_probe_s * len(requests))
        return self._server.handle_identification_batch(requests)

    def handle_identification_request(self, request):
        time.sleep(self.per_batch_s + self.per_probe_s)
        return self._server.handle_identification_request(request)

    def __getattr__(self, name):
        return getattr(self._server, name)


@pytest.fixture
def stack(fast_scheme):
    """An enrolled server and the population whose readings probe it."""
    params = SystemParams.paper_defaults(n=32)
    population = UserPopulation(params, size=POOL_USERS,
                                noise=BoundedUniformNoise(params.t), seed=41)
    server = AuthenticationServer(
        params, fast_scheme, store=IdentificationEngine(params, shards=2),
        seed=b"overload-srv")
    device = BiometricDevice(params, fast_scheme, seed=b"overload-enroll")
    for i, user_id in enumerate(population.user_ids()):
        assert run_enrollment(device, server, DuplexLink(), user_id,
                              population.template(i)).outcome.accepted
    return server, population


def _work(population, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    user_ids = population.user_ids()
    return [(user_ids[u], population.genuine_reading(int(u), rng))
            for u in rng.integers(0, POOL_USERS, size=count)]


def _drive(net, work, send_at, workers, budgets=None):
    """Send request ``i`` at ``send_at[i]`` seconds from the start, on
    the next free of ``workers`` threads (one connection each); with all
    offsets zero this is a closed loop of ``workers`` clients.

    Returns ``(elapsed_s, results)``; ``results[i]`` is ``(outcome,
    elapsed_ms, retry_after_ms)`` with outcome ``answered``, ``wrong``,
    ``expired``, ``overload`` or ``timeout``.
    """
    budgets = budgets or [None] * len(work)
    results: list = [None] * len(work)
    errors: list[BaseException] = []
    counter = itertools.count()
    barrier = threading.Barrier(workers + 1)
    start = [0.0]

    def worker(w: int) -> None:
        device = BiometricDevice(net.endpoint.params, net.endpoint.scheme,
                                 seed=b"overload-dev%d" % w)
        remote = RemoteEndpoint.connect(*net.address, timeout_s=10.0)
        try:
            barrier.wait()
            while (i := next(counter)) < len(work):
                wait = start[0] + send_at[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                remote.deadline_ms = budgets[i]
                expected, reading = work[i]
                op_start = time.perf_counter()
                retry_after = None
                try:
                    outcome = run_identification(device, remote, DuplexLink(),
                                                 reading).outcome
                    kind = "answered" if outcome.identified and \
                        outcome.user_id == expected else "wrong"
                except DeadlineExceededError:
                    kind = "expired"
                except ServiceOverloadError as exc:
                    kind, retry_after = "overload", exc.retry_after_ms
                except (RequestTimeoutError, ConnectionLostError):
                    kind = "timeout"  # connection-fatal: start a new one
                    remote.close()
                    remote = RemoteEndpoint.connect(*net.address,
                                                    timeout_s=10.0)
                elapsed_ms = (time.perf_counter() - op_start) * 1e3
                results[i] = (kind, elapsed_ms, retry_after)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
        finally:
            remote.close()

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(workers)]
    for thread in threads:
        thread.start()
    start[0] = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start[0]
    if errors:
        raise errors[0]
    return elapsed, results


def test_overload_sheds_only_what_it_must(stack, watchdog):
    server, population = stack
    paced = _Paced(server)
    paced.per_probe_s = PROBE_COST_S
    frontend = ServiceFrontend(paced, max_batch=MAX_BATCH,
                               batch_window_s=0.05, batch_linger_s=0.004,
                               adaptive=True,
                               latency_target_s=LATENCY_TARGET_S)
    with NetworkServer(frontend, owns_endpoint=True,
                       handler_threads=66) as net:
        # The sustainable rate: a closed loop on the paced capacity.
        work = _work(population, 64, seed=1)
        elapsed, results = _drive(net, work, [0.0] * len(work), workers=8)
        assert [r[0] for r in results] == ["answered"] * len(work)
        capacity = len(work) / elapsed

        # A schedule at three times that rate, with mixed budgets: tight
        # (the sojourn target: feasible at single load, mostly not once
        # the queue stands), generous, or none.
        n = 128
        tight_ms = int(LATENCY_TARGET_S * 1e3)
        classes = np.random.default_rng(2).choice(3, size=n,
                                                  p=(0.15, 0.6, 0.25))
        budgets = [(tight_ms, 1000, None)[c] for c in classes]
        send_at = [i / (3.0 * capacity) for i in range(n)]
        elapsed, results = _drive(net, _work(population, n, seed=3),
                                  send_at, workers=64, budgets=budgets)

    kinds = [r[0] for r in results]
    assert set(kinds) <= {"answered", "expired", "overload", "timeout"}, \
        f"lost or wrongly answered requests: {kinds}"
    for (kind, elapsed_ms, retry_after), budget in zip(results, budgets):
        if kind in ("expired", "timeout"):
            # Only a request with a budget may expire, and a client-side
            # timeout counts as expired only once the budget ran out.
            assert budget is not None, "a request without a budget expired"
            assert kind == "expired" or elapsed_ms >= budget
        if kind == "overload":
            assert retry_after is not None and retry_after > 0
    in_deadline = sum(
        1 for (kind, elapsed_ms, _), budget in zip(results, budgets)
        if kind == "answered" and (budget is None or elapsed_ms <= budget))
    goodput = in_deadline / elapsed
    assert goodput >= 0.7 * capacity, (
        f"goodput collapsed under overload: {goodput:.0f} in-deadline "
        f"req/s vs the {capacity:.0f} req/s sustainable rate")


def test_adaptive_linger_beats_static_p99_on_bursts(stack, watchdog):
    server, population = stack
    paced = _Paced(server)
    # A fixed cost per scan, whatever its size: the regime where waiting
    # to coalesce pays.  Each burst is one request, then five together
    # 6 ms later (over the 4 ms static linger), so the static batcher
    # scans the first alone and the rest in a second scan, while the
    # adaptive one grows its linger past the gap and scans each burst
    # once.  Bursts come 2.2 scans apart, so neither queue stands, and
    # the p99 gap is most of a scan on every burst, not a tail event.
    paced.per_batch_s = quantum_s = 0.15
    burst, gap_s, period_s = 6, 0.006, 2.2 * quantum_s

    def schedule(count: int) -> list[float]:
        return [(i // burst) * period_s + (gap_s if i % burst else 0.0)
                for i in range(count)]

    p99 = {}
    for adaptive in (False, True):
        frontend = ServiceFrontend(paced, max_batch=64, batch_window_s=0.05,
                                   batch_linger_s=0.004, adaptive=adaptive,
                                   latency_target_s=2 * quantum_s)
        with NetworkServer(frontend, owns_endpoint=True,
                           handler_threads=16) as net:
            # An unmeasured segment first: the controller grows the
            # linger by 1 ms per scan, so it needs a few to clear the gap.
            for count, seed in ((36, 4), (48, 5)):
                _, results = _drive(net, _work(population, count, seed),
                                    schedule(count), workers=12)
                assert [r[0] for r in results] == ["answered"] * count
            p99[adaptive] = np.percentile([r[1] for r in results], 99)
    assert p99[True] < p99[False], (
        f"adaptive linger p99 {p99[True]:.0f} ms is not below the static "
        f"linger's {p99[False]:.0f} ms on the bursty leg")
