"""Client-side resilience: retry with backoff, and endpoint failover.

The transport layer (PR 5) made failures *typed*: a stalled server is
:class:`~repro.exceptions.RequestTimeoutError`, a torn connection is
:class:`~repro.exceptions.ConnectionLostError`, an overloaded frontend
is :class:`~repro.exceptions.ServiceOverloadError` with a
``retry_after_ms`` hint, a restarting one is
:class:`~repro.exceptions.ServiceRestartingError` — all subclasses of
:class:`~repro.exceptions.TransientError`.  This module is the policy
layer that turns those types into behaviour:

* :class:`RetryPolicy` — bounded exponential backoff with deterministic
  (seedable) jitter, honouring the server's ``retry_after_ms`` hint as a
  floor so congested servers set the pace;
* :class:`FailoverClient` — an ordered endpoint list with one live
  connection, advancing to the next address when the current one proves
  dead and (optionally) preferring ``ready`` endpoints via the health
  frame's short-fuse probe;
* run-level helpers (:meth:`FailoverClient.enroll`,
  :meth:`~FailoverClient.identify`, :meth:`~FailoverClient.verify`) —
  the protocols are *multi-leg sessions* pinned to one server, so the
  unit of retry is the whole run, not the failed leg: a challenge
  obtained from a dead primary is useless against the standby.
  Enrollment is the exception — it is a single leg, and the server
  deduplicates byte-identical resubmissions (accepting them), so the
  helper mints the submission **once** and resubmits those same bytes on
  retry.  That is what makes "zero duplicated requests" hold under
  mid-enrollment failover: the ack may be lost, the record never is.

The failover tests drive this layer (``tests/net/test_failover.py``):
under a seeded fault plan, with the primary killed mid-workload, they
assert zero lost and zero wrongly-answered requests through it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.exceptions import TransientError
from repro.net.client import NetworkClient, RemoteEndpoint
from repro.net.framing import DEFAULT_MAX_FRAME
from repro.protocols.device import BiometricDevice
from repro.protocols.messages import (
    EnrollmentAck,
    RevokeAck,
    RevokeRequest,
    RotateAck,
    RotateRequest,
)
from repro.protocols.runners import (
    ProtocolRun,
    run_identification,
    run_verification,
)
from repro.protocols.transport import DuplexLink

#: Failures that justify trying again / trying the next endpoint: the
#: typed transient hierarchy plus the raw transport-level escapes a
#: connect() can raise before any mapping layer sees them.
RETRYABLE = (TransientError, TimeoutError, ConnectionError, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` bounds tries *per request/run* (first try
    included).  Delay before retry ``i`` (1-based) is
    ``base_delay_s * multiplier**(i-1)`` capped at ``max_delay_s``, then
    jittered uniformly in ``[1-jitter, 1+jitter]``.  A server
    ``retry_after_ms`` hint raises the floor — the client never comes
    back sooner than the server asked.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delays(self) -> "_DelaySchedule":
        """A fresh per-request delay iterator (own jitter stream)."""
        return _DelaySchedule(self)


class _DelaySchedule:
    """Stateful delay source for one request's retry sequence."""

    def __init__(self, policy: RetryPolicy) -> None:
        self._policy = policy
        self._rng = random.Random(policy.seed)
        self._attempt = 0

    def next_delay(self, hint_ms: int | None = None) -> float:
        p = self._policy
        raw = min(p.base_delay_s * p.multiplier ** self._attempt,
                  p.max_delay_s)
        self._attempt += 1
        jittered = raw * self._rng.uniform(1.0 - p.jitter, 1.0 + p.jitter)
        if hint_ms:
            jittered = max(jittered, hint_ms / 1000.0)
        return jittered


class _Breaker:
    """Per-endpoint circuit breaker (classic three-state).

    *Closed* passes traffic and counts consecutive retryable failures;
    at ``threshold`` it *opens* — the endpoint gets no traffic for
    ``cooldown_s``.  After the cooldown it is *half-open*: one health
    probe (the failover client's existing readiness probe) decides
    whether it closes again or re-opens for another cooldown.  This is
    what stops a retry loop from hammering an endpoint that answers
    every request with overload: backoff paces one request's retries,
    the breaker remembers *across* requests.
    """

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.opened_at: float | None = None
        self.opens = 0

    def state(self, now: float) -> str:
        """``closed`` / ``open`` / ``half-open`` at instant ``now``."""
        if self.opened_at is None:
            return "closed"
        if now - self.opened_at < self.cooldown_s:
            return "open"
        return "half-open"

    def record_failure(self, now: float) -> bool:
        """Count one retryable failure; ``True`` if this one tripped
        the breaker open."""
        self.failures += 1
        if self.failures >= self.threshold and self.opened_at is None:
            self.opened_at = now
            self.opens += 1
            return True
        return False

    def reopen(self, now: float) -> None:
        """A half-open probe failed: restart the cooldown."""
        self.opened_at = now
        self.opens += 1

    def record_success(self) -> None:
        """Traffic (or a half-open probe) succeeded: close fully."""
        self.failures = 0
        self.opened_at = None


class FailoverClient:
    """Resilient protocol access across an ordered endpoint list.

    Parameters
    ----------
    addresses:
        ``[(host, port), ...]`` in preference order; the first is the
        primary.  One connection is live at a time.
    policy:
        The :class:`RetryPolicy`; defaults are sensible for tests.
    timeout_s / max_frame:
        Per-connection parameters (see :class:`NetworkClient`).
    prefer_ready:
        When advancing endpoints, probe each candidate's health frame
        (short fuse) and prefer one reporting ``ready`` *and not
        degraded* — a frontend limping through its serial path still
        serves, but a healthy standby beats it; with no such candidate
        the next address is taken blind (it may have become reachable
        since the probe).
    health_deadline_s:
        The probe's fuse.
    breaker_threshold / breaker_cooldown_s:
        Per-endpoint circuit breaker: after ``breaker_threshold``
        consecutive overload/timeout (any retryable) failures the
        endpoint is cut off for ``breaker_cooldown_s``, then half-opens
        through the health probe.  ``breaker_threshold=0`` disables the
        breaker.
    overall_deadline_s:
        Total budget for one protocol run *including* every retry sleep
        and failover; a retry whose backoff would overrun it is not
        taken — the last transient failure propagates instead.  ``None``
        (default) keeps the attempts-bounded-only behaviour.
    """

    def __init__(self, addresses: list[tuple[str, int]],
                 policy: RetryPolicy | None = None,
                 timeout_s: float = 10.0,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 prefer_ready: bool = True,
                 health_deadline_s: float = 1.0,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 2.0,
                 overall_deadline_s: float | None = None) -> None:
        if not addresses:
            raise ValueError("need at least one endpoint address")
        self.addresses = list(addresses)
        self.policy = policy if policy is not None else RetryPolicy()
        self.timeout_s = timeout_s
        self.max_frame = max_frame
        self.prefer_ready = prefer_ready
        self.health_deadline_s = health_deadline_s
        self.overall_deadline_s = overall_deadline_s
        self._breakers = [
            _Breaker(breaker_threshold, breaker_cooldown_s)
            for _ in addresses] if breaker_threshold else None
        self._index = 0
        self._endpoint: RemoteEndpoint | None = None
        instance = obs.registry.next_instance("failover")
        self._retries = obs.registry.counter(
            "repro_client_retries_total",
            "Protocol runs retried after a transient failure.",
            labels=instance)
        self._failovers = obs.registry.counter(
            "repro_client_failovers_total",
            "Endpoint switches after the current endpoint proved dead.",
            labels=instance)
        self._breaker_opens = obs.registry.counter(
            "repro_client_breaker_opens_total",
            "Per-endpoint circuit-breaker trips.", labels=instance)

    # -- endpoint management -------------------------------------------------

    @property
    def current_address(self) -> tuple[str, int]:
        """The address the next request will try first."""
        return self.addresses[self._index]

    @property
    def retries(self) -> int:
        """Runs retried after a transient failure (lifetime count)."""
        return int(self._retries.value)

    @property
    def failovers(self) -> int:
        """Endpoint switches made (lifetime count)."""
        return int(self._failovers.value)

    @property
    def breaker_opens(self) -> int:
        """Circuit-breaker trips across all endpoints (lifetime count)."""
        return int(self._breaker_opens.value)

    def _connect(self) -> RemoteEndpoint:
        if self._endpoint is None:
            host, port = self.addresses[self._index]
            self._endpoint = RemoteEndpoint.connect(
                host, port, timeout_s=self.timeout_s,
                max_frame=self.max_frame)
        return self._endpoint

    def _drop_connection(self) -> None:
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None

    def _probe_ready(self, host: str, port: int) -> bool:
        """Readiness probe: ready and not limping.

        A *degraded* endpoint (serial fallback after its batcher gave
        up) still answers ``ready`` — it serves, slowly — but reports
        ``degraded`` in the same frame, and a failover client with any
        alternative should take the alternative.
        """
        try:
            with NetworkClient(host, port,
                               timeout_s=self.health_deadline_s) as probe:
                payload = probe.health(deadline_s=self.health_deadline_s)
                return bool(payload.get("ready")) \
                    and not payload.get("degraded", False)
        except Exception:  # noqa: BLE001 — an unreachable probe is "not ready"
            return False

    def breaker_states(self) -> list[str]:
        """Each endpoint's breaker state (all ``closed`` when the
        breaker is disabled), index-aligned with :attr:`addresses`."""
        if self._breakers is None:
            return ["closed"] * len(self.addresses)
        now = time.monotonic()
        return [b.state(now) for b in self._breakers]

    def _record_failure(self) -> None:
        """Count a retryable failure against the current endpoint."""
        if self._breakers is None:
            return
        if self._breakers[self._index].record_failure(time.monotonic()):
            self._breaker_opens.inc()
            obs.events.emit(
                "resilience", component="breaker", action="open",
                endpoint=f"{self.addresses[self._index][0]}:"
                         f"{self.addresses[self._index][1]}")

    def _record_success(self) -> None:
        if self._breakers is not None:
            self._breakers[self._index].record_success()

    def _advance(self) -> None:
        """Fail over: drop the connection, pick the next endpoint.

        Candidates are walked in ring order from the current endpoint.
        An *open* breaker (cooldown running) is skipped outright; a
        *half-open* one gets exactly one health probe — success closes
        it and wins, failure restarts its cooldown.  With
        ``prefer_ready``, closed-breaker candidates are probed too and
        the first ready-and-undegraded endpoint wins.  When every
        candidate refuses, the ring falls back to the least-recently
        tripped endpoint blind — the client always points somewhere,
        because an address may have recovered since its probe.
        """
        self._drop_connection()
        if len(self.addresses) == 1:
            return  # nowhere to go: retries stay on the only endpoint
        self._failovers.inc()
        now = time.monotonic()
        order = [(self._index + k) % len(self.addresses)
                 for k in range(1, len(self.addresses) + 1)]
        for idx in order:
            breaker = self._breakers[idx] if self._breakers else None
            state = breaker.state(now) if breaker else "closed"
            if state == "open":
                continue  # cooling: no traffic, not even a probe
            if state == "half-open" or self.prefer_ready:
                if self._probe_ready(*self.addresses[idx]):
                    if breaker is not None:
                        breaker.record_success()
                    self._index = idx
                    return
                if breaker is not None and state == "half-open":
                    breaker.reopen(now)
                continue
            self._index = idx  # closed breaker, no ready preference
            return
        # Nobody probed healthy: least-recently-tripped endpoint, blind.
        if self._breakers is not None:
            self._index = min(
                order, key=lambda i: self._breakers[i].opened_at or 0.0)
        else:
            self._index = order[0]

    def close(self) -> None:
        """Drop the live connection.  Idempotent."""
        self._drop_connection()

    def __enter__(self) -> "FailoverClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the retry engine ----------------------------------------------------

    def _with_retries(self, attempt_fn):
        """Run ``attempt_fn(endpoint)`` with backoff and failover.

        Each attempt gets a (possibly fresh) connection; a transient
        failure sleeps the policy delay (server hint honoured), fails
        over, and tries again.  The final attempt's transient error
        propagates typed — the caller knows the request was *not*
        confirmed, which for idempotent requests means "not applied or
        applied invisibly", never "applied twice".

        With ``overall_deadline_s`` set, the whole loop — attempts
        *plus* backoff sleeps — fits inside the caller's total budget:
        a retry whose delay would overrun it is abandoned and the last
        failure propagates.  Retries therefore never outlive the
        deadline the caller promised someone else.
        """
        schedule = self.policy.delays()
        run_deadline = (
            None if self.overall_deadline_s is None
            else time.monotonic() + self.overall_deadline_s)
        last: Exception | None = None
        for attempt in range(self.policy.max_attempts):
            try:
                result = attempt_fn(self._connect())
            except RETRYABLE as exc:
                last = exc
                self._record_failure()
                if attempt + 1 >= self.policy.max_attempts:
                    break
                delay = schedule.next_delay(
                    getattr(exc, "retry_after_ms", None))
                if (run_deadline is not None
                        and time.monotonic() + delay >= run_deadline):
                    break  # the sleep alone would overrun the budget
                self._retries.inc()
                time.sleep(delay)
                self._advance()
            else:
                self._record_success()
                return result
        assert last is not None
        raise last

    # -- resilient protocol runs ---------------------------------------------

    def enroll(self, device: BiometricDevice, user_id: str,
               bio: np.ndarray) -> EnrollmentAck:
        """Enroll with at-most-once effect across retries and failover.

        The submission is minted **once**; every retry resends the same
        ``(ID, pk, P)`` bytes, which the server treats as idempotent —
        a lost ack can therefore be retried without creating a second
        identity or burning the name with a half-applied enrollment.
        """
        submission = device.enroll(user_id, bio)
        return self._with_retries(
            lambda ep: ep.handle_enrollment(submission))

    def rotate(self, device: BiometricDevice, user_id: str,
               bio: np.ndarray, supersede: bool = True) -> RotateAck:
        """Rotate (or re-enroll) with at-most-once effect, like enroll.

        The fresh sketch version is minted **once** and the same
        ``(ID, pk, P)`` bytes resent on every retry; the server
        acknowledges a resubmission matching the current active version
        idempotently, so a rotate whose ack was torn away neither
        double-rotates nor leaves the client unsure which key to keep.
        """
        submission = device.enroll(user_id, bio)
        request = RotateRequest(
            user_id=submission.user_id,
            verify_key=submission.verify_key,
            helper_data=submission.helper_data,
            supersede=supersede)
        return self._with_retries(lambda ep: ep.handle_rotate(request))

    def revoke(self, user_id: str,
               version: int | None = None) -> RevokeAck:
        """Revoke sketch version(s); idempotent, so retried blindly."""
        request = RevokeRequest.make(user_id, version)
        return self._with_retries(lambda ep: ep.handle_revoke(request))

    def identify(self, device: BiometricDevice,
                 bio: np.ndarray) -> ProtocolRun:
        """One identification exchange, restarted whole on failure.

        Sessions are pinned to the server that minted them, so a leg-
        level retry against a different endpoint would answer ``⊥``
        incorrectly; restarting the run re-sketches and re-opens the
        session wherever the client lands.  Identification is pure
        read + challenge-response — safe to repeat.
        """
        return self._with_retries(
            lambda ep: run_identification(device, ep, DuplexLink(), bio))

    def verify(self, device: BiometricDevice, user_id: str,
               bio: np.ndarray) -> ProtocolRun:
        """One verification exchange, restarted whole on failure."""
        return self._with_retries(
            lambda ep: run_verification(
                device, ep, DuplexLink(), user_id, bio))

    def health(self) -> dict:
        """The current endpoint's health frame (with retries/failover)."""
        return self._with_retries(
            lambda ep: ep.client.health(deadline_s=self.health_deadline_s))
