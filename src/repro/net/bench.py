"""Closed-loop TCP bench behind ``repro net-bench``.

The service bench (:mod:`repro.service.bench`) established what the
micro-batching frontend sustains with clients calling it *in process*;
this harness asks the deployment question on top: what survives once
every request is framed, written to a socket, read back, and decoded —
and does the backpressure story actually reach a remote client?

Setup mirrors the service bench: one sharded
:class:`~repro.engine.engine.IdentificationEngine` with ``n_users``
records (a small genuinely-enrolled pool plus uniform filler), one
:class:`~repro.protocols.server.AuthenticationServer`, one
:class:`~repro.service.frontend.ServiceFrontend` — but mounted behind a
:class:`~repro.net.server.NetworkServer` on localhost TCP.  Phases:

* **enroll + warm** — the pool enrolls *over the wire* (exercising the
  enrollment frames), then two warm rounds promote verify-key tables
  and scan LUTs so the measured phase pays no one-time costs;
* **measured** — ``clients`` threads, each with its own
  :class:`~repro.net.client.NetworkClient` connection and device, drive
  ``run_identification`` closed-loop through
  :class:`~repro.net.client.RemoteEndpoint`; every outcome is
  parity-checked against the presented user, and client-side wire bytes
  are averaged into a per-identification cost.  ``verify_heavy=True``
  (CLI ``--verify-heavy``) switches the mix to three claimed-identity
  verifications per identification, so the frontend's verify-response
  micro-batcher — and the Schnorr batch-verification kernel under it —
  is exercised end-to-end over the wire (rows in the trajectory are
  tagged ``"mix": "verify-heavy"``);
* **overload probe** — a second server fronts a deliberately tiny
  frontend (queue of 1, one worker, throttled scans); hammering it must
  surface queue-full rejections as client-side
  :class:`~repro.exceptions.ServiceOverloadError`, proving the typed
  error frames carry admission control end-to-end.

:func:`run_overload_bench` (CLI ``--overload``) is the overload chaos
mode: static and adaptive frontends share one engine, closed-loop
baselines establish the sustainable rate and the static-vs-adaptive p99
comparison, then an open-loop mixed-deadline schedule offers a multiple
of that rate and every outcome is classified — correct in-deadline
answers are goodput, typed expired/over-capacity sheds are legitimate,
anything else fails the run (rows tagged ``"mix": "overload"``).

``REPRO_BENCH_SMOKE=1`` shrinks defaults (CI's net-smoke job); explicit
arguments always win.  ``write_trajectory`` appends to the shared
``BENCH_service.json`` artifact with ``"transport": "tcp"`` marking the
runs.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import faults
from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.params import SystemParams
from repro.crypto.signatures import get_scheme
from repro.engine.engine import IdentificationEngine
from repro.engine.journal import EnrollmentJournal
from repro.exceptions import (
    ConnectionLostError,
    DeadlineExceededError,
    ParameterError,
    RequestTimeoutError,
    ServiceOverloadError,
)
from repro.net.client import NetworkClient, RemoteEndpoint
from repro.net.replication import JournalFollower
from repro.net.resilience import FailoverClient, RetryPolicy
from repro.net.server import NetworkServer
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import (
    run_enrollment,
    run_identification,
    run_verification,
)
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink
from repro.service.bench import (  # noqa: F401  (write_trajectory re-export)
    _filler_records,
    stage_breakdown_ms,
    write_trajectory,
)
from repro.service.frontend import ServiceFrontend

#: (full, smoke) default sizes; smoke is CI's reduced net-smoke shape.
_DEFAULTS = {
    "n_users": (50_000, 10_000),
    "n_requests": (192, 64),
    "clients": (16, 8),
}


def _default(name: str, value: int | None) -> int:
    if value is not None:
        return value
    full, smoke = _DEFAULTS[name]
    return smoke if os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0") \
        else full


def _percentiles(latencies_ms: list[float]) -> tuple[float, float, float]:
    return tuple(float(np.percentile(latencies_ms, q)) for q in (50, 95, 99))


class _ThrottledServer:
    """Delay identification scans on a wrapped server (overload probe).

    Slowing the batcher's dispatch is what lets a bounded queue actually
    fill under closed-loop load; everything else delegates, so the few
    requests that are admitted still answer correctly.
    """

    def __init__(self, server: AuthenticationServer, delay_s: float) -> None:
        self._server = server
        self._delay_s = delay_s

    def handle_identification_request(self, request):
        """Single-probe scan, throttled."""
        time.sleep(self._delay_s)
        return self._server.handle_identification_request(request)

    def handle_identification_batch(self, requests):
        """Batched scan, throttled."""
        time.sleep(self._delay_s)
        return self._server.handle_identification_batch(requests)

    def __getattr__(self, name):
        return getattr(self._server, name)


class _PacedServer:
    """Add a switchable per-probe scan cost on a wrapped server.

    The smoke-sized engine scans so fast that a single offering process
    cannot out-run it — micro-batching absorbs any burst and nothing
    ever queues.  A deterministic per-probe cost puts capacity back in
    the regime the overload phase is about (the paper-scale engine,
    where a scan is real work), and makes it host-independent: the
    batcher still coalesces, but coalescing no longer raises the
    ceiling, so offered load past capacity builds a genuine standing
    queue.  Two knobs, both starting at 0 (a transparent wrapper):
    ``per_batch_s`` is a fixed cost per scan call — the paper-scale
    regime where coalescing amortises, used for the p99 comparison —
    and ``per_probe_s`` scales with the batch — a hard capacity
    ceiling coalescing cannot raise, used for the overload phase.
    Everything else delegates unchanged.
    """

    def __init__(self, server: AuthenticationServer) -> None:
        self._server = server
        self.per_probe_s = 0.0
        self.per_batch_s = 0.0

    def handle_identification_request(self, request):
        """Single-probe scan at the paced cost."""
        cost = self.per_batch_s + self.per_probe_s
        if cost:
            time.sleep(cost)
        return self._server.handle_identification_request(request)

    def handle_identification_batch(self, requests):
        """Batched scan: fixed cost plus the per-probe share."""
        cost = self.per_batch_s + self.per_probe_s * len(requests)
        if cost:
            time.sleep(cost)
        return self._server.handle_identification_batch(requests)

    def __getattr__(self, name):
        return getattr(self._server, name)


@dataclass(frozen=True)
class NetBenchReport:
    """Throughput, latency, wire cost, and backpressure over real TCP."""

    n_enrolled: int
    pool_users: int
    n_requests: int
    clients: int
    dimension: int
    shards: int
    scheme: str
    max_batch: int
    batch_window_s: float
    elapsed_s: float
    #: (p50, p95, p99) client-observed identification latency, ms.
    latency_ms: tuple[float, float, float]
    #: Realised micro-batch coalescing (from the frontend's counters).
    mean_batch: float
    max_batch_seen: int
    #: Mean client-side wire bytes per identification (both directions).
    wire_bytes_per_id: float
    #: Overload-probe outcome: attempts made / rejections that surfaced
    #: client-side as ServiceOverloadError.
    overload_attempts: int
    overload_rejections: int
    #: Traffic mix: ``"identify"`` (default) or ``"verify-heavy"``
    #: (3 claimed-identity verifications per identification).
    mix: str = "identify"
    #: Realised verify-response coalescing (frontend counters; NaN/0
    #: when the mix carried no verifications).
    verify_mean_batch: float = float("nan")
    verify_max_batch_seen: int = 0
    #: Per-stage latency rows from the obs histograms (queue-wait,
    #: batch-wait, scan, verify, plus the network server's end-to-end
    #: identify), ``{stage: {count, p50_ms, ...}}``.
    stage_latency_ms: dict = field(default_factory=dict)
    #: Chaos-mode accounting (zero outside ``mix="chaos"``): injected
    #: faults that actually fired, client-side run retries, endpoint
    #: failovers, and whether the primary was killed mid-phase.
    faults_fired: int = 0
    client_retries: int = 0
    client_failovers: int = 0
    primary_killed: bool = False
    #: Pipelined-mode accounting (zero outside ``--pipeline``): the
    #: client window driven over ONE connection in the measured phase,
    #: and the serial-client baseline measured on the same stack first.
    pipeline: int = 0
    serial_ids_per_s: float = 0.0
    #: Overload-mode accounting (zero outside ``mix="overload"``): the
    #: offered-load multiple over the measured sustainable baseline,
    #: realised offered/goodput rates, the closed-loop baseline each is
    #: judged against, the static-vs-adaptive p99 comparison from the
    #: bursty open-loop legs, shed classification counts,
    #: correct-but-late answers, and where the adaptive linger
    #: controller settled.
    overload_factor: float = 0.0
    offered_per_s: float = 0.0
    goodput_per_s: float = 0.0
    baseline_ids_per_s: float = 0.0
    static_p99_ms: float = 0.0
    adaptive_p99_ms: float = 0.0
    shed_expired: int = 0
    shed_overload: int = 0
    late_answers: int = 0
    adaptive_linger_ms: float = 0.0

    @property
    def ids_per_s(self) -> float:
        """Requests/sec sustained over TCP (whatever the mix)."""
        return self.n_requests / self.elapsed_s if self.elapsed_s > 0 \
            else float("inf")

    def summary_lines(self) -> list[str]:
        """Human-readable bench table (one string per line)."""
        p50, p95, p99 = self.latency_ms
        lines = [
            f"net bench (tcp, {self.mix} mix): {self.n_enrolled:,} enrolled "
            f"(n={self.dimension}, shards={self.shards}, "
            f"scheme={self.scheme}), {self.n_requests} requests, "
            f"{self.clients} concurrent client connections",
            f"  throughput {self.ids_per_s:>8,.0f} req/s   "
            f"p50 {p50:7.1f} ms  p95 {p95:7.1f} ms  p99 {p99:7.1f} ms",
            f"  wire cost  {self.wire_bytes_per_id:>8,.0f} bytes/req   "
            f"micro-batches: {self.mean_batch:.1f} probes mean, "
            f"{self.max_batch_seen} max",
        ]
        if self.pipeline > 1:
            speedup = self.ids_per_s / self.serial_ids_per_s \
                if self.serial_ids_per_s > 0 else float("inf")
            lines.insert(2, (
                f"  pipelining x{self.pipeline} on one connection: "
                f"{self.ids_per_s:,.0f} req/s vs "
                f"{self.serial_ids_per_s:,.0f} req/s serial "
                f"({speedup:.2f}x)"
            ))
        if self.verify_max_batch_seen:
            lines.append(
                f"  verify micro-batches: {self.verify_mean_batch:.1f} "
                f"responses mean, {self.verify_max_batch_seen} max"
            )
        if self.mix == "chaos":
            lines.append(
                f"  chaos: {self.faults_fired} faults fired, "
                f"{self.client_retries} client retries, "
                f"{self.client_failovers} failovers, primary "
                f"{'killed mid-phase' if self.primary_killed else 'survived'}"
                f" — zero lost, zero wrongly-answered"
            )
        elif self.mix == "overload":
            share = self.goodput_per_s / self.baseline_ids_per_s * 100 \
                if self.baseline_ids_per_s > 0 else float("inf")
            lines.append(
                f"  overload: {self.overload_factor:.1f}x sustainable "
                f"offered ({self.offered_per_s:,.0f} req/s realised vs "
                f"{self.baseline_ids_per_s:,.0f} req/s baseline) — "
                f"in-deadline goodput {self.goodput_per_s:,.0f} req/s "
                f"({share:.0f}% of baseline)"
            )
            lines.append(
                f"  sheds: {self.shed_expired} expired, "
                f"{self.shed_overload} over-capacity, "
                f"{self.late_answers} correct-but-late — zero lost, "
                f"zero wrongly-answered"
            )
            lines.append(
                f"  adaptive vs static p99 (bursty open-loop leg): "
                f"{self.adaptive_p99_ms:.1f} ms vs "
                f"{self.static_p99_ms:.1f} ms; adaptive linger settled "
                f"at {self.adaptive_linger_ms:.2f} ms"
            )
        else:
            lines.append(
                f"  backpressure probe: {self.overload_rejections}/"
                f"{self.overload_attempts} requests rejected with "
                f"ServiceOverloadError (queue-full -> typed error frame -> "
                f"client exception)"
            )
        if self.stage_latency_ms:
            lines.append("per-stage latency (obs histograms, whole run):")
            for stage, row in self.stage_latency_ms.items():
                lines.append(
                    f"  {stage:<12} count={row['count']:<7} "
                    f"p50 {row['p50_ms']:8.3f} ms  "
                    f"p95 {row['p95_ms']:8.3f} ms  "
                    f"p99 {row['p99_ms']:8.3f} ms"
                )
        return lines

    def to_json_dict(self) -> dict:
        """JSON-serialisable form for the shared service trajectory."""
        return {
            "transport": "tcp",
            "n_enrolled": self.n_enrolled,
            "pool_users": self.pool_users,
            "n_requests": self.n_requests,
            "clients": self.clients,
            "dimension": self.dimension,
            "shards": self.shards,
            "scheme": self.scheme,
            "max_batch": self.max_batch,
            "batch_window_s": self.batch_window_s,
            "elapsed_s": self.elapsed_s,
            "ids_per_s": self.ids_per_s,
            "latency_ms": list(self.latency_ms),
            "mean_batch": self.mean_batch,
            "max_batch_seen": self.max_batch_seen,
            "wire_bytes_per_id": self.wire_bytes_per_id,
            "overload_attempts": self.overload_attempts,
            "overload_rejections": self.overload_rejections,
            "mix": self.mix,
            # No verify batches (the identify mix) means a NaN mean,
            # which json.dumps would emit as a bare non-spec literal —
            # record 0.0 so the artifact stays strictly parseable.
            "verify_mean_batch":
                self.verify_mean_batch if self.verify_max_batch_seen else 0.0,
            "verify_max_batch_seen": self.verify_max_batch_seen,
            "stage_latency_ms": self.stage_latency_ms,
            "faults_fired": self.faults_fired,
            "client_retries": self.client_retries,
            "client_failovers": self.client_failovers,
            "primary_killed": self.primary_killed,
            "pipeline": self.pipeline,
            "serial_ids_per_s": self.serial_ids_per_s,
            "overload_factor": self.overload_factor,
            "offered_per_s": self.offered_per_s,
            "goodput_per_s": self.goodput_per_s,
            "baseline_ids_per_s": self.baseline_ids_per_s,
            "static_p99_ms": self.static_p99_ms,
            "adaptive_p99_ms": self.adaptive_p99_ms,
            "shed_expired": self.shed_expired,
            "shed_overload": self.shed_overload,
            "late_answers": self.late_answers,
            "adaptive_linger_ms": self.adaptive_linger_ms,
        }


def _overload_probe(server: AuthenticationServer, params: SystemParams,
                    seed: int, attempts_per_client: int = 8,
                    probe_clients: int = 4,
                    delay_s: float = 0.03) -> tuple[int, int]:
    """Hammer a tiny frontend over TCP; count client-side overloads.

    Queue of 1, one worker, throttled scans: with several closed-loop
    clients the admission queue is full essentially always, so most
    attempts must come back as ``ErrorReply(code="overload")`` and
    re-raise client-side.  Returns ``(attempts, rejections)``.
    """
    rng = np.random.default_rng(seed ^ 0x6F76)
    half = params.interval_width // 2
    probes = rng.integers(-half, half + 1,
                          size=(probe_clients, attempts_per_client, params.n),
                          dtype=np.int64)
    frontend = ServiceFrontend(_ThrottledServer(server, delay_s),
                               max_queue=1, max_batch=1,
                               batch_window_s=0.0, batch_linger_s=0.0,
                               workers=1, submit_timeout_s=0.01)
    rejections = 0
    count_lock = threading.Lock()
    errors: list[BaseException] = []
    device = BiometricDevice(params, server.scheme, seed=b"overload-probe")

    def client(c: int) -> None:
        nonlocal rejections
        mine = 0
        try:
            with RemoteEndpoint.connect(host, port) as remote:
                for a in range(attempts_per_client):
                    request = device.probe_sketch(probes[c, a])
                    try:
                        remote.handle_identification_request(request)
                    except ServiceOverloadError:
                        mine += 1
        except BaseException as exc:  # noqa: BLE001 — surface in main thread
            errors.append(exc)
        with count_lock:
            rejections += mine

    with NetworkServer(frontend, owns_endpoint=True,
                       handler_threads=probe_clients + 1) as net:
        host, port = net.address
        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"overload-{c}")
                   for c in range(probe_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return probe_clients * attempts_per_client, rejections


def _pipeline_shootout(host: str, port: int, params: SystemParams,
                       sig_scheme, seed: int, identify, readings,
                       n_requests: int,
                       window: int) -> tuple[float, float, list[float], int]:
    """Serial-vs-pipelined phases on one connection each.

    Phase one drives ``n_requests`` identifications through a single
    :class:`NetworkClient` round trip at a time — the baseline a lone
    process gets at window 1.  Phase two drives the same-sized workload
    through ONE :class:`NetworkClient` (``window`` in flight)
    with ``window`` driver threads sharing the connection.  Returns
    ``(serial_ids_per_s, pipelined_elapsed_s, pipelined_latencies_ms,
    pipelined_wire_bytes)``.
    """
    # Phase one: the serial baseline.
    baseline_device = BiometricDevice(
        params, sig_scheme, seed=seed.to_bytes(8, "big") + b"serial")
    serial_work = readings(n_requests, np.random.default_rng(seed + 2))
    with RemoteEndpoint.connect(host, port) as remote:
        start = time.perf_counter()
        for expected, reading in serial_work:
            identify(baseline_device, remote, expected, reading)
        serial_elapsed = time.perf_counter() - start
    serial_ids_per_s = n_requests / serial_elapsed if serial_elapsed > 0 \
        else float("inf")

    # Phase two: the same workload shape, pipelined on one socket.
    work = readings(n_requests, np.random.default_rng(seed + 4))
    per_driver = [work[d::window] for d in range(window)]
    devices = [
        BiometricDevice(params, sig_scheme,
                        seed=seed.to_bytes(8, "big") + b"pipe%d" % d)
        for d in range(window)
    ]
    latencies: list[float] = []
    latency_lock = threading.Lock()
    errors: list[BaseException] = []
    barrier = threading.Barrier(window + 1)

    def driver(d: int, client: NetworkClient) -> None:
        mine: list[float] = []
        remote = RemoteEndpoint(client)  # shared connection, not owned
        try:
            barrier.wait()
            for expected, reading in per_driver[d]:
                mine.append(identify(devices[d], remote, expected, reading))
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
        with latency_lock:
            latencies.extend(mine)

    with NetworkClient(host, port, window=window) as client:
        threads = [threading.Thread(target=driver, args=(d, client),
                                    name=f"pipe-driver-{d}")
                   for d in range(window)]
        for t in threads:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        for t in threads:
            t.join()
        elapsed_s = time.perf_counter() - start
        wire_total = client.total_bytes
    if errors:
        raise errors[0]
    return serial_ids_per_s, elapsed_s, latencies, wire_total


def run_net_bench(dimension: int = 128, n_users: int | None = None,
                  pool_users: int = 16, n_requests: int | None = None,
                  clients: int | None = None, shards: int = 4,
                  scheme: str = "dsa-1024", seed: int = 0,
                  max_batch: int = 64, batch_window_s: float = 0.05,
                  batch_linger_s: float = 0.004,
                  frontend_workers: int = 4,
                  verify_heavy: bool = False,
                  pipeline: int = 0,
                  host: str = "127.0.0.1") -> NetBenchReport:
    """Build the stack behind TCP, drive it closed-loop, report.

    ``verify_heavy=True`` switches the measured phase to a 3:1
    verification:identification mix (see the module docstring).

    ``pipeline=N`` (``N > 1``) switches the measured phase to the
    single-connection shootout: first ``n_requests`` identifications
    through ONE serial client (the ``serial_ids_per_s`` baseline), then
    the same workload through ONE :class:`NetworkClient` with
    an ``N``-request window driven by ``N`` threads — so the reported
    throughput is what one process, one socket sustains when it stops
    waiting a full round trip per request.  The identify mix only;
    ``clients`` is ignored (both phases use one connection).
    """
    n_users = _default("n_users", n_users)
    n_requests = _default("n_requests", n_requests)
    clients = _default("clients", clients)
    if pool_users < 1 or n_users < pool_users:
        raise ParameterError("need 1 <= pool_users <= n_users")
    if pipeline > 1:
        if verify_heavy:
            raise ParameterError("--pipeline measures the identify mix; "
                                 "drop --verify-heavy")
        if n_requests < pipeline:
            raise ParameterError("need pipeline <= n_requests")
        clients = 1  # both phases: one connection
    elif clients < 1 or n_requests < clients:
        raise ParameterError("need 1 <= clients <= n_requests")
    params = SystemParams.paper_defaults(n=dimension)
    sig_scheme = get_scheme(scheme)
    rng = np.random.default_rng(seed)

    engine = IdentificationEngine(params, shards=shards)
    server = AuthenticationServer(params, sig_scheme, store=engine,
                                  seed=seed.to_bytes(8, "big") + b"net-srv")
    population = UserPopulation(params, size=pool_users,
                                noise=BoundedUniformNoise(params.t),
                                seed=seed)
    enroll_device = BiometricDevice(params, sig_scheme,
                                    seed=seed.to_bytes(8, "big") + b"enroll")
    frontend = ServiceFrontend(server, max_batch=max_batch,
                               batch_window_s=batch_window_s,
                               batch_linger_s=batch_linger_s,
                               workers=frontend_workers,
                               max_queue=max(256, 2 * clients))
    user_ids = population.user_ids()

    def identify(device: BiometricDevice, endpoint, expected: str,
                 reading: np.ndarray) -> float:
        start = time.perf_counter()
        run = run_identification(device, endpoint, DuplexLink(), reading)
        elapsed = time.perf_counter() - start
        if not run.outcome.identified or run.outcome.user_id != expected:
            raise AssertionError(
                f"net bench mis-identification: expected {expected!r}, "
                f"got {run.outcome!r}"
            )
        return elapsed * 1e3

    def verify(device: BiometricDevice, endpoint, expected: str,
               reading: np.ndarray) -> float:
        start = time.perf_counter()
        run = run_verification(device, endpoint, DuplexLink(), expected,
                               reading)
        elapsed = time.perf_counter() - start
        if not run.outcome.verified or run.outcome.user_id != expected:
            raise AssertionError(
                f"net bench verification rejected a genuine reading of "
                f"{expected!r}: {run.outcome!r}"
            )
        return elapsed * 1e3

    def readings(count: int, phase_rng: np.random.Generator):
        picks = phase_rng.integers(0, pool_users, size=count)
        return [(user_ids[u], population.genuine_reading(int(u), phase_rng))
                for u in picks]

    with NetworkServer(frontend, host=host, owns_endpoint=True,
                       handler_threads=max(8, clients + 2)) as net:
        bound_host, port = net.address

        # -- enrollment over the wire + filler + warm-up ------------------
        with RemoteEndpoint.connect(bound_host, port) as remote:
            for i, user_id in enumerate(user_ids):
                run = run_enrollment(enroll_device, remote, DuplexLink(),
                                     user_id, population.template(i))
                assert run.outcome.accepted
            engine.add_many(_filler_records(params, n_users - pool_users,
                                            rng))
            warm_rng = np.random.default_rng(seed + 1)
            for _ in range(2):
                for user in range(pool_users):
                    identify(enroll_device, remote, user_ids[user],
                             population.genuine_reading(user, warm_rng))

        # -- measured phase (pipeline mode): one-connection shootout ------
        if pipeline > 1:
            serial_ids_per_s, elapsed_s, latencies, wire_total = \
                _pipeline_shootout(
                    bound_host, port, params, sig_scheme, seed,
                    identify, readings, n_requests, pipeline)
            stats = frontend.stats()
            stage_latency_ms = stage_breakdown_ms({
                "identify": net.identify_seconds,
                "queue-wait": frontend.queue_wait_seconds,
                "batch-wait": frontend.batch_wait_seconds,
                "scan": engine.scan_seconds,
                "verify": server.key_tables.verify_seconds,
            })
            attempts, rejections = _overload_probe(server, params, seed)
            return NetBenchReport(
                n_enrolled=n_users, pool_users=pool_users,
                n_requests=n_requests, clients=clients,
                dimension=dimension, shards=shards, scheme=scheme,
                max_batch=max_batch, batch_window_s=batch_window_s,
                elapsed_s=elapsed_s, latency_ms=_percentiles(latencies),
                mean_batch=stats.mean_batch,
                max_batch_seen=stats.max_batch,
                wire_bytes_per_id=wire_total / n_requests,
                overload_attempts=attempts,
                overload_rejections=rejections,
                stage_latency_ms=stage_latency_ms,
                pipeline=pipeline, serial_ids_per_s=serial_ids_per_s,
            )

        # -- measured phase: closed-loop clients over TCP -----------------
        # In the verify-heavy mix, every 4th request identifies and the
        # rest run the 1:1 verification flow, so the frontend's
        # verify-response batcher sees sustained concurrent bursts.
        ops = [(verify if verify_heavy and i % 4 else identify)
               for i in range(n_requests)]
        work = [(op, expected, reading) for op, (expected, reading) in
                zip(ops, readings(n_requests, np.random.default_rng(seed + 2)))]
        per_client = [work[c::clients] for c in range(clients)]
        devices = [
            BiometricDevice(params, sig_scheme,
                            seed=seed.to_bytes(8, "big") + b"net%d" % c)
            for c in range(clients)
        ]
        latencies: list[float] = []
        wire_bytes = [0] * clients
        latency_lock = threading.Lock()
        errors: list[BaseException] = []
        barrier = threading.Barrier(clients + 1)

        def client(c: int) -> None:
            mine: list[float] = []
            try:
                with RemoteEndpoint.connect(bound_host, port) as remote:
                    barrier.wait()
                    for op, expected, reading in per_client[c]:
                        mine.append(op(devices[c], remote,
                                       expected, reading))
                    wire_bytes[c] = remote.client.total_bytes
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
            with latency_lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"net-client-{c}")
                   for c in range(clients)]
        for t in threads:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        for t in threads:
            t.join()
        elapsed_s = time.perf_counter() - start
        if errors:
            raise errors[0]
        stats = frontend.stats()
        stage_latency_ms = stage_breakdown_ms({
            "identify": net.identify_seconds,
            "queue-wait": frontend.queue_wait_seconds,
            "batch-wait": frontend.batch_wait_seconds,
            "scan": engine.scan_seconds,
            "verify": server.key_tables.verify_seconds,
        })

        # -- backpressure probe on a second, tiny server ------------------
        attempts, rejections = _overload_probe(server, params, seed)

    return NetBenchReport(
        n_enrolled=n_users, pool_users=pool_users, n_requests=n_requests,
        clients=clients, dimension=dimension, shards=shards, scheme=scheme,
        max_batch=max_batch, batch_window_s=batch_window_s,
        elapsed_s=elapsed_s, latency_ms=_percentiles(latencies),
        mean_batch=stats.mean_batch, max_batch_seen=stats.max_batch,
        wire_bytes_per_id=sum(wire_bytes) / n_requests,
        overload_attempts=attempts, overload_rejections=rejections,
        mix="verify-heavy" if verify_heavy else "identify",
        verify_mean_batch=stats.mean_verify_batch,
        verify_max_batch_seen=stats.max_verify_batch,
        stage_latency_ms=stage_latency_ms,
    )


def run_chaos_bench(dimension: int = 128, n_users: int | None = None,
                    pool_users: int = 16, n_requests: int | None = None,
                    clients: int | None = None, shards: int = 4,
                    scheme: str = "dsa-1024", seed: int = 0,
                    max_batch: int = 64, batch_window_s: float = 0.05,
                    batch_linger_s: float = 0.004,
                    frontend_workers: int = 4,
                    chaos_seed: int = 0,
                    host: str = "127.0.0.1") -> NetBenchReport:
    """The chaos-mode bench: a primary+standby pair under a fault plan.

    Builds two journaled engines behind TCP servers — the standby
    follows the primary's journal — and drives identification
    closed-loop through per-client :class:`FailoverClient`\\ s while a
    seeded fault schedule drops/truncates/delays reply frames and
    crashes the frontend batcher, and the primary is **killed outright**
    once a third of the workload has completed.  The run fails unless
    every request eventually answers, every answer names the presented
    user (zero lost, zero wrongly-answered), and the standby's engine
    ends bit-parity with the primary's.  The report row is tagged
    ``"mix": "chaos"``.
    """
    n_users = _default("n_users", n_users)
    n_requests = _default("n_requests", n_requests)
    clients = _default("clients", clients)
    if pool_users < 1 or n_users < pool_users:
        raise ParameterError("need 1 <= pool_users <= n_users")
    if clients < 1 or n_requests < clients:
        raise ParameterError("need 1 <= clients <= n_requests")
    params = SystemParams.paper_defaults(n=dimension)
    sig_scheme = get_scheme(scheme)
    rng = np.random.default_rng(seed)
    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))

    primary_engine = IdentificationEngine(
        params, shards=shards,
        journal=EnrollmentJournal(tmp / "primary" / "journal.log",
                                  params=params))
    primary_server = AuthenticationServer(
        params, sig_scheme, store=primary_engine,
        seed=seed.to_bytes(8, "big") + b"chaos-pri")
    standby_engine = IdentificationEngine(
        params, shards=max(1, shards - 1),  # different sharding, same answers
        journal=EnrollmentJournal(tmp / "standby" / "journal.log",
                                  params=params))
    standby_server = AuthenticationServer(
        params, sig_scheme, store=standby_engine,
        seed=seed.to_bytes(8, "big") + b"chaos-sta")
    population = UserPopulation(params, size=pool_users,
                                noise=BoundedUniformNoise(params.t),
                                seed=seed)
    user_ids = population.user_ids()
    enroll_device = BiometricDevice(
        params, sig_scheme, seed=seed.to_bytes(8, "big") + b"chaos-enroll")

    primary_frontend = ServiceFrontend(
        primary_server, max_batch=max_batch, batch_window_s=batch_window_s,
        batch_linger_s=batch_linger_s, workers=frontend_workers,
        max_queue=max(256, 2 * clients))
    standby_frontend = ServiceFrontend(
        standby_server, max_batch=max_batch, batch_window_s=batch_window_s,
        batch_linger_s=batch_linger_s, workers=frontend_workers,
        max_queue=max(256, 2 * clients))

    primary_net = NetworkServer(primary_frontend, host=host,
                                owns_endpoint=True,
                                handler_threads=max(8, clients + 2))
    primary_net.start()
    follower = JournalFollower(standby_engine, *primary_net.address,
                               poll_interval_s=0.05)
    standby_net = NetworkServer(standby_frontend, host=host,
                                owns_endpoint=True,
                                handler_threads=max(8, clients + 2),
                                health_extra=follower.health_extra)
    standby_net.start()

    primary_killed = False
    try:
        # -- enrollment (resilient path) + filler + catch-up --------------
        with FailoverClient([primary_net.address, standby_net.address],
                            timeout_s=5.0) as enroller:
            for i, user_id in enumerate(user_ids):
                ack = enroller.enroll(enroll_device, user_id,
                                      population.template(i))
                assert ack.accepted, f"chaos enrollment refused: {user_id}"
        primary_engine.add_many(
            _filler_records(params, n_users - pool_users, rng))
        deadline = time.monotonic() + 120.0
        while follower.applied_seq < n_users:
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"standby failed to catch up: "
                    f"{follower.applied_seq}/{n_users} "
                    f"(last error: {follower.health_extra()})")
            time.sleep(0.05)

        # -- warm the primary, then install the fault plan ----------------
        warm_rng = np.random.default_rng(seed + 1)
        with RemoteEndpoint.connect(*primary_net.address) as remote:
            for user in range(pool_users):
                run_identification(enroll_device, remote, DuplexLink(),
                                   population.genuine_reading(user, warm_rng))
        faults.install([
            {"point": "net.server.send", "style": "drop", "p": 0.01},
            {"point": "net.server.send", "style": "truncate", "p": 0.02},
            {"point": "net.server.send", "style": "delay", "p": 0.05,
             "delay_s": 0.01},
            {"point": "frontend.batcher", "style": "raise", "p": 0.01},
        ], seed=chaos_seed)

        # -- measured phase: failover clients under the fault plan --------
        picks = np.random.default_rng(seed + 2).integers(
            0, pool_users, size=n_requests)
        work = [(user_ids[u],
                 population.genuine_reading(
                     int(u), np.random.default_rng(seed + 3 + i)))
                for i, u in enumerate(picks)]
        per_client = [work[c::clients] for c in range(clients)]
        devices = [
            BiometricDevice(params, sig_scheme,
                            seed=seed.to_bytes(8, "big") + b"chaos%d" % c)
            for c in range(clients)
        ]
        failover_clients = [
            FailoverClient(
                [primary_net.address, standby_net.address],
                policy=RetryPolicy(max_attempts=6, base_delay_s=0.05,
                                   max_delay_s=1.0, seed=chaos_seed + c),
                timeout_s=1.5, health_deadline_s=0.5)
            for c in range(clients)
        ]
        latencies: list[float] = []
        done = 0
        progress = threading.Condition()
        errors: list[BaseException] = []
        barrier = threading.Barrier(clients + 1)

        def client(c: int) -> None:
            nonlocal done
            mine: list[float] = []
            try:
                barrier.wait()
                for expected, reading in per_client[c]:
                    start = time.perf_counter()
                    run = failover_clients[c].identify(devices[c], reading)
                    mine.append((time.perf_counter() - start) * 1e3)
                    if not run.outcome.identified or \
                            run.outcome.user_id != expected:
                        raise AssertionError(
                            f"chaos mis-identification: expected "
                            f"{expected!r}, got {run.outcome!r}")
                    with progress:
                        done += 1
                        progress.notify_all()
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
                with progress:
                    progress.notify_all()
            with progress:
                latencies.extend(mine)

        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"chaos-client-{c}")
                   for c in range(clients)]
        for t in threads:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        # Kill the primary once a third of the workload has answered —
        # the rest of the run must complete against the standby.
        kill_at = max(1, n_requests // 3)
        with progress:
            progress.wait_for(lambda: done >= kill_at or errors,
                              timeout=120.0)
        if not errors:
            primary_net.close()
            primary_killed = True
        for t in threads:
            t.join()
        elapsed_s = time.perf_counter() - start
        if errors:
            raise errors[0]
        if len(latencies) != n_requests:
            raise AssertionError(
                f"chaos lost requests: {len(latencies)}/{n_requests} "
                f"answered")

        # -- parity: the standby answers exactly like the primary ---------
        parity_rng = np.random.default_rng(seed + 7)
        if len(standby_engine) != len(primary_engine):
            raise AssertionError(
                f"standby diverged: {len(standby_engine)} records vs "
                f"primary's {len(primary_engine)}")
        for user in range(pool_users):
            probe = enroll_device.probe_sketch(
                population.genuine_reading(user, parity_rng)).sketch
            mine = [m.user_id for m in primary_engine.find_by_sketch(probe)]
            theirs = [m.user_id
                      for m in standby_engine.find_by_sketch(probe)]
            if mine != theirs:
                raise AssertionError(
                    f"standby parity failure on pool user {user}: "
                    f"{mine!r} != {theirs!r}")

        stats = primary_frontend.stats()
        fired = faults.fired()
        return NetBenchReport(
            n_enrolled=n_users, pool_users=pool_users,
            n_requests=n_requests, clients=clients, dimension=dimension,
            shards=shards, scheme=scheme, max_batch=max_batch,
            batch_window_s=batch_window_s, elapsed_s=elapsed_s,
            latency_ms=_percentiles(latencies),
            mean_batch=stats.mean_batch, max_batch_seen=stats.max_batch,
            wire_bytes_per_id=_chaos_wire_bytes(failover_clients,
                                                n_requests),
            overload_attempts=0, overload_rejections=0,
            mix="chaos",
            faults_fired=fired,
            client_retries=sum(fc.retries for fc in failover_clients),
            client_failovers=sum(fc.failovers for fc in failover_clients),
            primary_killed=primary_killed,
        )
    finally:
        faults.clear()
        for fc in locals().get("failover_clients", []):
            fc.close()
        follower.close()
        standby_net.close()
        primary_net.close()
        shutil.rmtree(tmp, ignore_errors=True)


def run_overload_bench(dimension: int = 128, n_users: int | None = None,
                       pool_users: int = 16, n_requests: int | None = None,
                       clients: int | None = None, shards: int = 4,
                       scheme: str = "dsa-1024", seed: int = 0,
                       max_batch: int = 64, batch_window_s: float = 0.05,
                       batch_linger_s: float = 0.004,
                       frontend_workers: int = 4,
                       overload_factor: float = 3.0,
                       scan_cost_ms: float = 16.0,
                       host: str = "127.0.0.1") -> NetBenchReport:
    """The overload bench: mixed-deadline load past the sustainable rate.

    Two frontends share ONE engine+server: a *static* leg with the
    default fixed linger, and an *adaptive* leg with the online linger
    controller and CoDel-style queue-age shedding.  Phases:

    * **p99 comparison** — a bursty open-loop schedule runs against
      each leg in turn under a fixed per-batch scan cost (the
      paper-scale amortisation regime: a 50k-record scan costs the
      same whether it answers 2 probes or 20).  Each burst's arrivals
      are spaced wider than the static 4 ms linger, so the static leg
      burns two scan quanta per burst and the deficit stands an
      ever-deeper queue, while the controller grows the linger toward
      half the measured scan cost and serves each burst as one scan —
      the static-vs-adaptive p99 rows;
    * **paced baseline** — the adaptive leg's scans get a fixed
      per-probe cost (``scan_cost_ms``), pinning capacity
      host-independently; the closed-loop workload re-runs to measure
      the *sustainable* rate on that capacity;
    * **overload** — an open-loop schedule offers ``overload_factor``
      times the sustainable rate at the paced adaptive leg, each
      request carrying a tight deadline (around the sojourn target),
      a generous one (1 s), or none.  Every outcome is classified: a
      correct in-deadline answer is goodput; ``DeadlineExceededError``
      (or a client-side timeout after the budget genuinely ran out) is
      a legitimate *expired* shed; ``ServiceOverloadError`` with an
      honest ``retry_after_ms`` is a legitimate *over-capacity* shed;
      anything else fails the run.

    The run asserts zero lost and zero wrongly-answered requests, and
    that in-deadline goodput holds at least 70% of the single-load
    baseline — overload must degrade by shedding the right requests,
    never by collapsing or corrupting the served ones.  The report row
    is tagged ``"mix": "overload"``.
    """
    n_users = _default("n_users", n_users)
    n_requests = _default("n_requests", n_requests)
    clients = _default("clients", clients)
    if pool_users < 1 or n_users < pool_users:
        raise ParameterError("need 1 <= pool_users <= n_users")
    if clients < 1 or n_requests < clients:
        raise ParameterError("need 1 <= clients <= n_requests")
    if not 1.5 <= overload_factor <= 4.0:
        raise ParameterError(
            "overload factor must be in [1.5, 4]: below that the phase "
            "barely queues, above it measures the schedule, not the server")
    params = SystemParams.paper_defaults(n=dimension)
    sig_scheme = get_scheme(scheme)
    rng = np.random.default_rng(seed)

    engine = IdentificationEngine(params, shards=shards)
    server = AuthenticationServer(params, sig_scheme, store=engine,
                                  seed=seed.to_bytes(8, "big") + b"ovl-srv")
    # Both legs serve the SAME paced wrapper.  It is transparent
    # (zero cost) for the baseline p99 comparison — real batch
    # amortisation is what the adaptive linger exploits — and flipped
    # on for the overload phase, pinning capacity near
    # 1000/scan_cost_ms req/s whatever the host so the offered
    # schedule can genuinely exceed it.
    paced = _PacedServer(server)
    population = UserPopulation(params, size=pool_users,
                                noise=BoundedUniformNoise(params.t),
                                seed=seed)
    user_ids = population.user_ids()
    enroll_device = BiometricDevice(
        params, sig_scheme, seed=seed.to_bytes(8, "big") + b"ovl-enroll")
    queue_cap = max(256, 2 * clients)
    # Once scans are paced, the service quantum is batch_size x
    # scan_cost; the batch cap is lowered alongside the pacing knob so
    # one quantum stays well under the sojourn target and the generous
    # deadline class.  (``max_batch`` is read live by the batcher.)
    ovl_max_batch = min(max_batch, 8)
    # The sojourn bound both adaptive mechanisms steer toward.  One
    # paced quantum is ovl_max_batch x scan_cost (~130 ms), so the
    # default (the 50 ms window) would read pure batch granularity as
    # permanent congestion.
    latency_target_s = max(batch_window_s,
                           2.0 * ovl_max_batch * scan_cost_ms / 1e3)
    static_frontend = ServiceFrontend(
        paced, max_batch=max_batch, batch_window_s=batch_window_s,
        batch_linger_s=batch_linger_s, workers=frontend_workers,
        max_queue=queue_cap)
    adaptive_frontend = ServiceFrontend(
        paced, max_batch=max_batch, batch_window_s=batch_window_s,
        batch_linger_s=batch_linger_s, workers=frontend_workers,
        max_queue=queue_cap, adaptive=True,
        latency_target_s=latency_target_s)

    def identify(device: BiometricDevice, endpoint, expected: str,
                 reading: np.ndarray) -> float:
        start = time.perf_counter()
        run = run_identification(device, endpoint, DuplexLink(), reading)
        elapsed = time.perf_counter() - start
        if not run.outcome.identified or run.outcome.user_id != expected:
            raise AssertionError(
                f"overload bench mis-identification: expected "
                f"{expected!r}, got {run.outcome!r}")
        return elapsed * 1e3

    def readings(count: int, phase_rng: np.random.Generator):
        picks = phase_rng.integers(0, pool_users, size=count)
        return [(user_ids[u], population.genuine_reading(int(u), phase_rng))
                for u in picks]

    def closed_loop(address: tuple[str, int], work: list,
                    tag: bytes) -> tuple[float, list[float]]:
        """The classic closed-loop measured phase against one leg."""
        n_clients = clients
        per_client = [work[c::n_clients] for c in range(n_clients)]
        devices = [
            BiometricDevice(params, sig_scheme,
                            seed=seed.to_bytes(8, "big") + tag + b"%d" % c)
            for c in range(n_clients)
        ]
        latencies: list[float] = []
        latency_lock = threading.Lock()
        errors: list[BaseException] = []
        barrier = threading.Barrier(n_clients + 1)

        def client(c: int) -> None:
            mine: list[float] = []
            try:
                with RemoteEndpoint.connect(*address) as remote:
                    barrier.wait()
                    for expected, reading in per_client[c]:
                        mine.append(identify(devices[c], remote,
                                             expected, reading))
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
            with latency_lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"ovl-base-{c}")
                   for c in range(n_clients)]
        for t in threads:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        for t in threads:
            t.join()
        elapsed_s = time.perf_counter() - start
        if errors:
            raise errors[0]
        return elapsed_s, latencies

    def open_loop(address: tuple[str, int], work: list,
                  send_at: list[float], tag: bytes,
                  n_workers: int) -> list[float]:
        """Scheduled-offset open loop with no deadlines: every request
        must be answered correctly, so any shed or error fails the
        phase.  ``send_at[i]`` is request *i*'s offset from the phase
        start."""
        latencies: list[float] = []
        latency_lock = threading.Lock()
        errs: list[BaseException] = []
        ctr = itertools.count()
        barrier = threading.Barrier(n_workers + 1)
        t0 = [0.0]

        def worker(w: int) -> None:
            device = BiometricDevice(
                params, sig_scheme,
                seed=seed.to_bytes(8, "big") + tag + b"%d" % w)
            mine: list[float] = []
            try:
                with RemoteEndpoint.connect(*address) as remote:
                    barrier.wait()
                    while not errs:
                        i = next(ctr)
                        if i >= len(work):
                            break
                        wait = t0[0] + send_at[i] - time.perf_counter()
                        if wait > 0:
                            time.sleep(wait)
                        expected, reading = work[i]
                        mine.append(identify(device, remote,
                                             expected, reading))
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errs.append(exc)
            with latency_lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=worker, args=(w,),
                                    name=f"ovl-open-{w}")
                   for w in range(n_workers)]
        for t in threads:
            t.start()
        t0[0] = time.perf_counter()
        barrier.wait()
        for t in threads:
            t.join()
        if errs:
            raise errs[0]
        return latencies

    static_net = NetworkServer(static_frontend, host=host,
                               owns_endpoint=True,
                               handler_threads=max(8, 4 * clients + 2))
    adaptive_net = NetworkServer(adaptive_frontend, host=host,
                                 owns_endpoint=True,
                                 handler_threads=max(8, 4 * clients + 2))
    try:
        static_net.start()
        adaptive_net.start()

        # -- enrollment over the wire (static leg) + filler + warm-up -----
        with RemoteEndpoint.connect(*static_net.address) as remote:
            for i, user_id in enumerate(user_ids):
                run = run_enrollment(enroll_device, remote, DuplexLink(),
                                     user_id, population.template(i))
                assert run.outcome.accepted
        engine.add_many(_filler_records(params, n_users - pool_users, rng))
        warm_rng = np.random.default_rng(seed + 1)
        for address in (static_net.address, adaptive_net.address):
            with RemoteEndpoint.connect(*address) as remote:
                for _ in range(2):
                    for user in range(pool_users):
                        identify(enroll_device, remote, user_ids[user],
                                 population.genuine_reading(user, warm_rng))

        # -- open-loop p99 comparison: static leg, then adaptive leg ------
        # A fixed per-batch scan cost (the paper-scale regime, where a
        # 50k-record scan costs the same whether it answers 2 probes or
        # 20) under *bursty* arrivals — the traffic shape where the
        # linger policy decides everything.  With continuous arrivals
        # the scan itself coalesces (the backlog accumulated during one
        # quantum forms the next batch), so a burst schedule keeps the
        # queue idle between cohorts: the intra-burst gap is pitched
        # above the static 4 ms linger, so the static batcher scans the
        # first arrival ALONE — burning a full quantum on one probe —
        # then needs a second full quantum for the stragglers, while
        # the controller's grown linger (half the measured scan cost,
        # capped by the window) bridges the gaps and serves the whole
        # burst as one scan.  The burst period sits between the two
        # costs — window + quantum < period < 2 x quantum — so one
        # lingered scan per burst is sustainable but static's two scans
        # are a structural deficit that stands an ever-deeper queue.
        # (That inequality needs quantum > window: eager pipelining
        # beats wait-and-batch whenever a scan is cheaper than the
        # collection window it saves.)
        quantum_s = 6.0 * scan_cost_ms / 1e3
        paced.per_batch_s = quantum_s
        burst_m = 6
        intra_gap_s = quantum_s / 12.0
        period_s = 1.75 * quantum_s

        def burst_schedule(count: int) -> list[float]:
            return [(i // burst_m) * period_s + (i % burst_m) * intra_gap_s
                    for i in range(count)]

        n_phase = 2 * n_requests
        p99_workers = min(48, 6 * clients)
        static_lat: list[float] = []
        adaptive_lat: list[float] = []
        for address, tag, warm_seed, seed_, out in (
                (static_net.address, b"sta", seed + 20, seed + 2,
                 static_lat),
                (adaptive_net.address, b"ada", seed + 21, seed + 3,
                 adaptive_lat)):
            # Unmeasured warm segment: reach steady state (and, on the
            # adaptive leg, let the controller converge) first.
            open_loop(address,
                      readings(n_requests, np.random.default_rng(warm_seed)),
                      burst_schedule(n_requests), tag + b"w", p99_workers)
            out.extend(open_loop(
                address, readings(n_phase, np.random.default_rng(seed_)),
                burst_schedule(n_phase), tag, p99_workers))
        static_p99 = float(np.percentile(static_lat, 99))
        adaptive_p99 = float(np.percentile(adaptive_lat, 99))

        # -- paced sustainable baseline on the adaptive leg ---------------
        # Switch the pacing to a per-probe cost: a capacity ceiling the
        # batcher cannot coalesce its way above, so offered load past it
        # must queue — and shed.
        paced.per_batch_s = 0.0
        paced.per_probe_s = scan_cost_ms / 1e3
        adaptive_frontend.max_batch = ovl_max_batch
        paced_elapsed, paced_lat = closed_loop(
            adaptive_net.address,
            readings(n_requests, np.random.default_rng(seed + 6)), b"pac")
        baseline_rate = n_requests / paced_elapsed \
            if paced_elapsed > 0 else float("inf")

        # -- overload phase: open-loop schedule at factor x baseline ------
        n_overload = 2 * n_requests
        interval_s = 1.0 / (overload_factor * baseline_rate)
        # Tight deadlines sit at the sojourn target: feasible at single
        # load (the paced baseline runs well under it), mostly not once
        # the queue stands — they exist to prove expired requests shed
        # instead of wasting scans.  They stay a minority slice: every
        # shed is goodput the 70% floor can't recover.
        tight_ms = max(50, int(latency_target_s * 1e3))
        budgets: list[int | None] = [tight_ms, 1000, None]
        classes = np.random.default_rng(seed + 5).choice(
            3, size=n_overload, p=(0.15, 0.6, 0.25))
        work = readings(n_overload, np.random.default_rng(seed + 4))
        # Enough in-flight capacity to actually realise the factor:
        # a worker is a closed loop, so offering factor x baseline needs
        # roughly factor x (baseline rate x per-request latency) of them
        # even before queueing inflates the latency term.
        workers = min(64, 8 * clients)
        in_deadline: list[float] = []
        tally = {"answered": 0, "expired": 0, "overload": 0, "late": 0}
        tally_lock = threading.Lock()
        errors: list[BaseException] = []
        counter = itertools.count()
        barrier = threading.Barrier(workers + 1)
        phase_start = [0.0]
        wire_bytes = [0] * workers

        def overload_worker(w: int) -> None:
            device = BiometricDevice(
                params, sig_scheme,
                seed=seed.to_bytes(8, "big") + b"ovl%d" % w)
            mine_in: list[float] = []
            mine = {"answered": 0, "expired": 0, "overload": 0, "late": 0}
            remote = RemoteEndpoint.connect(*adaptive_net.address)
            try:
                barrier.wait()
                while not errors:
                    i = next(counter)
                    if i >= n_overload:
                        break
                    wait = phase_start[0] + i * interval_s \
                        - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    budget = budgets[classes[i]]
                    remote.deadline_ms = budget
                    expected, reading = work[i]
                    op_start = time.perf_counter()
                    try:
                        run = run_identification(device, remote,
                                                 DuplexLink(), reading)
                    except DeadlineExceededError:
                        # The server's typed expired shed — legal only
                        # for requests that actually carried a budget.
                        if budget is None:
                            raise AssertionError(
                                "server shed a request as expired that "
                                "carried no deadline") from None
                        mine["expired"] += 1
                    except ServiceOverloadError as exc:
                        if not exc.retry_after_ms or exc.retry_after_ms < 0:
                            raise AssertionError(
                                "over-capacity shed arrived without an "
                                "honest retry_after_ms hint") from exc
                        mine["overload"] += 1
                    except (RequestTimeoutError, ConnectionLostError) as exc:
                        # A client-side timeout is connection-fatal; it
                        # only counts as an expired shed when the budget
                        # provably ran out before the socket gave up.
                        elapsed_ms = (time.perf_counter() - op_start) * 1e3
                        if budget is None or elapsed_ms < budget:
                            raise AssertionError(
                                f"request failed before its budget ran "
                                f"out: {exc!r} after {elapsed_ms:.0f} ms "
                                f"(budget {budget} ms)") from exc
                        mine["expired"] += 1
                        wire_bytes[w] += remote.client.total_bytes
                        remote.close()
                        remote = RemoteEndpoint.connect(
                            *adaptive_net.address)
                    else:
                        elapsed_ms = (time.perf_counter() - op_start) * 1e3
                        if not run.outcome.identified or \
                                run.outcome.user_id != expected:
                            raise AssertionError(
                                f"overload wrongly-answered: expected "
                                f"{expected!r}, got {run.outcome!r}")
                        mine["answered"] += 1
                        if budget is None or elapsed_ms <= budget:
                            mine_in.append(elapsed_ms)
                        else:
                            mine["late"] += 1
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
            finally:
                wire_bytes[w] += remote.client.total_bytes
                remote.close()
                with tally_lock:
                    in_deadline.extend(mine_in)
                    for key, value in mine.items():
                        tally[key] += value

        threads = [threading.Thread(target=overload_worker, args=(w,),
                                    name=f"ovl-worker-{w}")
                   for w in range(workers)]
        for t in threads:
            t.start()
        phase_start[0] = time.perf_counter() + 0.05
        barrier.wait()
        start = time.perf_counter()
        for t in threads:
            t.join()
        elapsed_s = time.perf_counter() - start
        if errors:
            raise errors[0]

        # -- the overload contract, asserted ------------------------------
        accounted = tally["answered"] + tally["expired"] + tally["overload"]
        if accounted != n_overload:
            raise AssertionError(
                f"overload lost requests: {accounted}/{n_overload} "
                f"accounted for ({tally})")
        offered_per_s = n_overload / elapsed_s if elapsed_s > 0 \
            else float("inf")
        goodput_per_s = len(in_deadline) / elapsed_s if elapsed_s > 0 \
            else float("inf")
        if goodput_per_s < 0.7 * baseline_rate:
            raise AssertionError(
                f"goodput collapsed under overload: {goodput_per_s:.0f} "
                f"in-deadline req/s vs the {baseline_rate:.0f} req/s "
                f"sustainable baseline (floor is 70%)")

        stats = adaptive_frontend.stats()
        stage_latency_ms = stage_breakdown_ms({
            "identify": adaptive_net.identify_seconds,
            "queue-wait": adaptive_frontend.queue_wait_seconds,
            "batch-wait": adaptive_frontend.batch_wait_seconds,
            "scan": engine.scan_seconds,
            "verify": server.key_tables.verify_seconds,
        })
        return NetBenchReport(
            n_enrolled=n_users, pool_users=pool_users,
            n_requests=n_overload, clients=workers, dimension=dimension,
            shards=shards, scheme=scheme, max_batch=max_batch,
            batch_window_s=batch_window_s, elapsed_s=elapsed_s,
            latency_ms=_percentiles(in_deadline),
            mean_batch=stats.mean_batch, max_batch_seen=stats.max_batch,
            wire_bytes_per_id=sum(wire_bytes) / n_overload,
            overload_attempts=n_overload,
            overload_rejections=tally["expired"] + tally["overload"],
            mix="overload",
            stage_latency_ms=stage_latency_ms,
            overload_factor=overload_factor,
            offered_per_s=offered_per_s,
            goodput_per_s=goodput_per_s,
            baseline_ids_per_s=baseline_rate,
            static_p99_ms=static_p99,
            adaptive_p99_ms=adaptive_p99,
            shed_expired=tally["expired"],
            shed_overload=tally["overload"],
            late_answers=tally["late"],
            adaptive_linger_ms=adaptive_frontend.current_linger_s * 1e3,
        )
    finally:
        # owns_endpoint=True: closing each server closes its frontend.
        adaptive_net.close()
        static_net.close()


def _chaos_wire_bytes(failover_clients: list[FailoverClient],
                      n_requests: int) -> float:
    """Mean client-side wire bytes per answered request.

    Failover clients drop and rebuild connections, so only the live
    connection's accounting survives — the figure is a lower bound and
    recorded as such (chaos rows are about loss, not wire cost).
    """
    total = 0
    for fc in failover_clients:
        endpoint = getattr(fc, "_endpoint", None)
        if endpoint is not None:
            total += endpoint.client.total_bytes
    return total / max(n_requests, 1)
