"""Deployment-scale workload simulation.

A downstream adopter's first question about the paper's protocol is not
"does one round work" but "what does a *deployment* look like": sustained
identification traffic, a mix of genuine users and strangers, occasional
tampering — what throughput does a single authentication server sustain
and what do latency percentiles look like?

:class:`WorkloadSimulator` drives the real protocol stack (no mocking)
with a seeded synthetic traffic mix and aggregates:

* latency percentiles (p50/p90/p99) per traffic class,
* outcome counts (identified / rejected / tamper-failed),
* wire-byte totals,
* derived single-server throughput.

The simulator is deterministic given its seed, so tests can assert exact
outcome counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.core.params import SystemParams
from repro.crypto.signatures import SignatureScheme
from repro.exceptions import ParameterError
from repro.protocols.device import BiometricDevice
from repro.protocols.runners import (
    ProtocolRun,
    run_enrollment,
    run_identification,
)
from repro.protocols.server import AuthenticationServer
from repro.protocols.transport import DuplexLink

if TYPE_CHECKING:
    from repro.engine.engine import EngineStats, IdentificationEngine


@dataclass(frozen=True)
class TrafficMix:
    """Proportions of request classes in the simulated workload.

    ``genuine`` — enrolled users presenting their own biometric;
    ``stranger`` — readings from people never enrolled (must yield ⊥);
    ``noisy_genuine`` — enrolled users with noise beyond ``t`` on some
    coordinates (sensor glitches; mostly rejected, exercising the
    failure path).
    """

    genuine: float = 0.8
    stranger: float = 0.15
    noisy_genuine: float = 0.05

    def __post_init__(self) -> None:
        total = self.genuine + self.stranger + self.noisy_genuine
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"traffic mix sums to {total}, expected 1")
        if min(self.genuine, self.stranger, self.noisy_genuine) < 0:
            raise ParameterError("traffic mix proportions must be >= 0")


@dataclass
class ClassStats:
    """Aggregated results for one traffic class."""

    requests: int = 0
    identified: int = 0
    latencies_ms: list[float] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        """Latency percentile in milliseconds (NaN when empty)."""
        if not self.latencies_ms:
            return float("nan")
        return float(np.percentile(self.latencies_ms, q))


@dataclass
class SimulationReport:
    """Everything a capacity planner needs from one run."""

    n_users: int
    n_requests: int
    per_class: dict[str, ClassStats]
    total_wire_bytes: int
    total_compute_s: float

    @property
    def throughput_rps(self) -> float:
        """Requests/second one server core sustains (compute-bound)."""
        if self.total_compute_s == 0:
            return float("inf")
        return self.n_requests / self.total_compute_s

    def summary_lines(self) -> list[str]:
        """Human-readable capacity summary (one string per line)."""
        lines = [
            f"workload: {self.n_requests} requests against "
            f"{self.n_users} enrolled users",
            f"single-core throughput: {self.throughput_rps:,.0f} req/s "
            f"(compute-bound)",
            f"total wire traffic: {self.total_wire_bytes / 1e6:.1f} MB",
        ]
        for name, stats in self.per_class.items():
            if not stats.requests:
                continue
            lines.append(
                f"  {name:<14} {stats.requests:>5} reqs  "
                f"accept {stats.identified / stats.requests:>6.1%}  "
                f"p50 {stats.percentile(50):6.1f} ms  "
                f"p90 {stats.percentile(90):6.1f} ms  "
                f"p99 {stats.percentile(99):6.1f} ms"
            )
        return lines


class WorkloadSimulator:
    """Seeded identification-traffic generator over the real stack.

    ``store`` is the simulated server's
    :class:`~repro.engine.engine.IdentificationEngine` (the server's
    in-memory single-shard default when omitted; :meth:`with_engine`
    builds a sharded one), so capacity numbers can be taken against the
    same store a deployment would serve from.

    ``server_wrapper`` routes every protocol exchange (enrollment
    included) through a wrapper endpoint instead of the bare server —
    most usefully the concurrent
    :class:`~repro.service.frontend.ServiceFrontend` (see
    :meth:`with_frontend`), so the simulated workload exercises the same
    admission/batching pipeline a deployment would.  The simulator's
    request loop stays single-threaded either way (determinism is the
    point of a seeded simulation); call :meth:`close` when done so a
    wrapping frontend's threads shut down.
    """

    def __init__(self, params: SystemParams, scheme: SignatureScheme,
                 n_users: int, mix: TrafficMix | None = None,
                 seed: int = 0,
                 store: IdentificationEngine | None = None,
                 server_wrapper: Callable[[AuthenticationServer], object] | None = None,
                 ) -> None:
        if n_users < 1:
            raise ParameterError("need at least one enrolled user")
        self.params = params
        self.mix = mix if mix is not None else TrafficMix()
        self._rng = np.random.default_rng(seed)
        self.population = UserPopulation(
            params, size=n_users, noise=BoundedUniformNoise(params.t),
            seed=seed,
        )
        self.device = BiometricDevice(params, scheme,
                                      seed=seed.to_bytes(8, "big") + b"dev")
        self.server = AuthenticationServer(params, scheme, store=store,
                                           seed=seed.to_bytes(8, "big") + b"srv")
        self.endpoint = self.server if server_wrapper is None \
            else server_wrapper(self.server)
        for i, user_id in enumerate(self.population.user_ids()):
            run = run_enrollment(self.device, self.endpoint, DuplexLink(),
                                 user_id, self.population.template(i))
            assert run.outcome.accepted

    @classmethod
    def with_engine(cls, params: SystemParams, scheme: SignatureScheme,
                    n_users: int, mix: TrafficMix | None = None,
                    seed: int = 0, shards: int = 4,
                    workers: int | None = None) -> "WorkloadSimulator":
        """A simulator whose server stores enrollments in a sharded
        :class:`~repro.engine.engine.IdentificationEngine`.

        The engine import is lazy to keep the package graph acyclic.
        """
        from repro.engine.engine import IdentificationEngine

        store = IdentificationEngine(params, shards=shards, workers=workers)
        return cls(params, scheme, n_users=n_users, mix=mix, seed=seed,
                   store=store)

    @classmethod
    def with_frontend(cls, params: SystemParams, scheme: SignatureScheme,
                      n_users: int, mix: TrafficMix | None = None,
                      seed: int = 0,
                      store: IdentificationEngine | None = None,
                      **frontend_kwargs) -> "WorkloadSimulator":
        """A simulator routed through the concurrent service frontend.

        The driving loop is still serial, so reports stay deterministic
        — what changes is the code path: every request crosses the
        frontend's admission queue, micro-batcher, and verify pool,
        which is exactly the parity a pipeline refactor needs a seeded
        baseline for.  The service import is lazy (call-time) because
        the layering runs service → protocols, never the reverse.
        """
        from repro.service.frontend import ServiceFrontend

        def wrapper(server: AuthenticationServer) -> ServiceFrontend:
            return ServiceFrontend(server, **frontend_kwargs)

        return cls(params, scheme, n_users=n_users, mix=mix, seed=seed,
                   store=store, server_wrapper=wrapper)

    def close(self) -> None:
        """Shut down a wrapping endpoint (no-op for the bare server)."""
        if self.endpoint is not self.server:
            closer = getattr(self.endpoint, "close", None)
            if closer is not None:
                closer()

    def engine_stats(self) -> EngineStats:
        """The simulated server's engine counter snapshot."""
        return self.server.engine_stats()

    def _draw_class(self) -> str:
        roll = self._rng.random()
        if roll < self.mix.genuine:
            return "genuine"
        if roll < self.mix.genuine + self.mix.stranger:
            return "stranger"
        return "noisy_genuine"

    def _reading_for(self, klass: str) -> tuple[np.ndarray, int | None]:
        if klass == "genuine":
            user = int(self._rng.integers(0, len(self.population)))
            return self.population.genuine_reading(user, self._rng), user
        if klass == "stranger":
            return self.population.impostor_reading(self._rng), None
        # noisy_genuine: a genuine template with a burst of out-of-band
        # noise on a few coordinates (beyond t -> usually rejected).
        user = int(self._rng.integers(0, len(self.population)))
        reading = self.population.genuine_reading(user, self._rng)
        burst = self._rng.choice(self.params.n,
                                 size=max(1, self.params.n // 100),
                                 replace=False)
        reading[burst] += self.params.t + self.params.a
        from repro.core.numberline import NumberLine

        return NumberLine(self.params).reduce(reading), user

    def run(self, n_requests: int) -> SimulationReport:
        """Drive ``n_requests`` identification rounds; aggregate results."""
        if n_requests < 1:
            raise ParameterError("n_requests must be >= 1")
        per_class = {
            "genuine": ClassStats(),
            "stranger": ClassStats(),
            "noisy_genuine": ClassStats(),
        }
        total_bytes = 0
        total_compute = 0.0
        for _ in range(n_requests):
            klass = self._draw_class()
            reading, expected_user = self._reading_for(klass)
            run: ProtocolRun = run_identification(
                self.device, self.endpoint, DuplexLink(), reading
            )
            stats = per_class[klass]
            stats.requests += 1
            stats.identified += bool(run.outcome.identified)
            stats.latencies_ms.append(run.compute_time_s * 1e3)
            total_bytes += run.wire_bytes
            total_compute += run.compute_time_s
            # Soundness invariant: whoever gets identified must be the
            # presented user — never a bystander.
            if run.outcome.identified and expected_user is not None:
                expected_id = self.population.user_ids()[expected_user]
                assert run.outcome.user_id == expected_id
            if run.outcome.identified and expected_user is None:
                raise AssertionError(
                    "stranger identified: false accept in simulation"
                )
        return SimulationReport(
            n_users=len(self.population),
            n_requests=n_requests,
            per_class=per_class,
            total_wire_bytes=total_bytes,
            total_compute_s=total_compute,
        )
