"""The load generator: one thread, one asyncio loop, two connections.

Requests that open an exchange (identification, verification request,
enrollment) go on connection A; challenge responses go on connection B.
Sessions are server-wide, so the split is legal, and it keeps the cheap
response leg from queueing behind pending scans under the transport's
in-order reply rule.  Replies are matched to requests FIFO per
connection.  Device work (sketching, ``Rep``, signing) runs inline on the
loop, timed separately from the wire legs.

Every answer is checked: an identification must name the presented
identity, a verification must accept, an enrollment must be acked.  A
wrong answer raises :class:`WrongAnswer`, which voids the run; typed
error replies, timeouts and lost connections fail only their operation.
"""

from __future__ import annotations

import asyncio
import collections
import time
from dataclasses import dataclass, field

import numpy as np

from repro.biometrics.synthetic import BoundedUniformNoise
from repro.core.extractor import HelperData
from repro.core.numberline import NumberLine
from repro.exceptions import RecoveryError
from repro.net.framing import PREFIX_BYTES, frame_buffers, read_frame
from repro.protocols.device import signed_payload
from repro.protocols.messages import (
    EnrollmentAck,
    ErrorReply,
    IdentificationChallenge,
    IdentificationDecline,
    IdentificationOutcome,
    IdentificationResponse,
    Message,
    TracedEnvelope,
    VerificationChallenge,
    VerificationOutcome,
    VerificationRequest,
    VerificationResponse,
)

#: Longest one leg may wait for its reply before the operation fails.
LEG_TIMEOUT_S = 30.0

#: An identification may present an identity enrolled earlier in the run
#: once its enrollment is this many operations old, so it has been acked.
ENROLL_LAG = 64


class WrongAnswer(Exception):
    """The stack answered an operation incorrectly: the run is void."""


class OpFailed(Exception):
    """A typed error reply, a timeout or a lost connection."""


class Connection:
    """One TCP connection with FIFO reply matching."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: collections.deque[asyncio.Future] = collections.deque()
        self._lost: str = ""
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def call(self, message: Message, trace: bytes | None):
        """Send ``message``; return ``(reply, sent, received, wire bytes)``."""
        if self._lost:
            raise OpFailed(self._lost)
        if trace is not None:
            message = TracedEnvelope.wrap(message, trace)
        frame = frame_buffers(message)
        future = asyncio.get_running_loop().create_future()
        self._pending.append(future)
        sent = time.monotonic()
        try:
            self._writer.writelines(frame)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise OpFailed(f"send failed: {exc}") from exc
        try:
            # Shielded: a timed-out leg leaves its future queued, so the
            # late reply is still matched to it and not to the next one.
            reply, received, size = await asyncio.wait_for(
                asyncio.shield(future), LEG_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise OpFailed(f"no reply within {LEG_TIMEOUT_S}s") from None
        return reply, sent, received, size + sum(map(len, frame))

    async def _read_loop(self) -> None:
        try:
            while True:
                payload = await read_frame(self._reader)
                if payload is None:
                    raise ConnectionError("server closed the connection")
                received = time.monotonic()
                reply = Message.decode(payload)
                if isinstance(reply, TracedEnvelope):
                    reply = reply.inner()
                future = self._pending.popleft()
                if not future.done():
                    future.set_result(
                        (reply, received, len(payload) + PREFIX_BYTES))
        except Exception as exc:  # noqa: BLE001 — fails every pending leg
            self._lost = f"connection lost: {exc}"
            while self._pending:
                future = self._pending.popleft()
                if not future.done():
                    future.set_exception(OpFailed(self._lost))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._read_task.cancel()
        await asyncio.gather(self._read_task, return_exceptions=True)


class Identities:
    """Every identity's template, and fresh genuine readings of it.

    A reading is the template plus uniform noise of amplitude ``t``, so it
    lies within Chebyshev distance ``t`` of the template: ``Rep`` must
    recover the enrolled secret from it (Rep correctness).
    """

    def __init__(self, params) -> None:
        self._line = NumberLine(params)
        self._noise = BoundedUniformNoise(params.t)
        self._n = params.n
        self.templates: list[np.ndarray] = []

    def new(self, rng: np.random.Generator) -> int:
        half = self._line.half_range
        self.templates.append(
            rng.integers(-half, half, size=self._n, dtype=np.int64))
        return len(self.templates) - 1

    @staticmethod
    def user_id(identity: int) -> str:
        return f"bench-{identity:06d}"

    def reading(self, identity: int, rng: np.random.Generator) -> np.ndarray:
        noise = self._noise.sample(rng, self._n)
        return self._line.reduce(self.templates[identity] + noise)


@dataclass
class Spec:
    """One operation's inputs, fixed before it is sent."""

    kind: str           # "identify", "verify" or "enroll"
    identity: int
    data: np.ndarray    # a genuine reading, or the template to enroll
    expect: str         # the user id the answer must name


def specs(mix: str, identities: Identities, pool: int,
          rng: np.random.Generator):
    """The endless, seed-determined operation sequence of a traffic mix.

    ``identify`` and ``verify`` present a uniformly drawn pool identity.
    ``enroll-mix`` enrolls one new identity in every block of four
    operations (at a seeded slot, so the ratio is exact in every window)
    and its identifications also draw identities enrolled earlier.
    """
    kind = "verify" if mix == "verify" else "identify"
    joined: list[tuple[int, int]] = []  # (operation index, identity)
    eligible = 0
    index = 0
    while True:
        enroll_slot = int(rng.integers(4)) if mix == "enroll-mix" else -1
        for slot in range(4):
            if slot == enroll_slot:
                who = identities.new(rng)
                joined.append((index, who))
                yield Spec("enroll", who, identities.templates[who],
                           identities.user_id(who))
            else:
                while (eligible < len(joined)
                       and joined[eligible][0] < index - ENROLL_LAG):
                    eligible += 1
                pick = int(rng.integers(pool + eligible))
                who = pick if pick < pool else joined[pick - pool][1]
                yield Spec(kind, who, identities.reading(who, rng),
                           identities.user_id(who))
            index += 1


@dataclass
class Op:
    """What one operation did, as the generator saw it."""

    due: float
    trace: bytes | None
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    error: str = ""
    #: ``(role, sent, received)`` per wire leg; role "open" or "respond".
    legs: list[tuple[str, float, float]] = field(default_factory=list)
    device_s: float = 0.0
    respond_s: list[float] = field(default_factory=list)
    wire_bytes: int = 0


class Generator:
    """Runs operations against the stack and checks every answer."""

    def __init__(self, device, identities: Identities, open_conn: Connection,
                 respond_conn: Connection, seed: int) -> None:
        self.device = device
        self.identities = identities
        self.open_conn = open_conn
        self.respond_conn = respond_conn
        self.traced = False
        self._traces = 0
        self._enrolled: dict[int, asyncio.Future] = {}
        self._keys: dict[bytes, object] = {}
        self._nonces = np.random.default_rng([seed, 4])

    def _enrolled_future(self, identity: int) -> asyncio.Future:
        future = self._enrolled.get(identity)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            self._enrolled[identity] = future
        return future

    async def run(self, spec: Spec, due: float | None = None) -> Op:
        """Run one operation; ``due`` defaults to now (closed loop)."""
        start = time.monotonic()
        trace = None
        if self.traced:
            self._traces += 1
            trace = self._traces.to_bytes(16, "big")
        op = Op(start if due is None else due, trace, start=start)
        try:
            if spec.kind == "enroll":
                await self._enroll(op, spec)
            else:
                await self._enrolled_future(spec.identity)
                if spec.kind == "identify":
                    await self._identify(op, spec)
                else:
                    await self._verify(op, spec)
            op.ok = True
        except OpFailed as exc:
            op.error = str(exc)
            enrolled = self._enrolled_future(spec.identity)
            if spec.kind == "enroll" and not enrolled.done():
                enrolled.set_exception(OpFailed(f"enrollment failed: {exc}"))
        op.end = time.monotonic()
        return op

    async def _leg(self, op: Op, role: str, message: Message):
        conn = self.open_conn if role == "open" else self.respond_conn
        reply, sent, received, size = await conn.call(message, op.trace)
        op.legs.append((role, sent, received))
        op.wire_bytes += size
        if isinstance(reply, ErrorReply):
            raise OpFailed(f"error reply {reply.code}: {reply.detail}")
        return reply

    def _device(self, op: Op, fn, *args):
        start = time.monotonic()
        try:
            return fn(*args)
        finally:
            op.device_s += time.monotonic() - start

    def _respond(self, op: Op, response_type, reading, challenge):
        """The device's answer to a challenge: ``Rep`` on the offered
        helper data, then a signature over ``(c, a)``.

        ``Rep`` runs on every challenge; only the key pair, a
        deterministic function of the secret ``Rep`` returns, is derived
        once per secret, so the generator's CPU goes to the protocol and
        not to repeated key generation.
        """
        start = time.monotonic()
        try:
            helper = HelperData.from_bytes(challenge.helper_data)
            secret = self.device.fe.reproduce(reading, helper)
            keypair = self._keys.get(secret)
            if keypair is None:
                keypair = self._keys[secret] = \
                    self.device.scheme.keygen_from_seed(secret)
            nonce = self._nonces.bytes(16)
            signature = self.device.scheme.sign(
                keypair.signing_key,
                signed_payload(challenge.challenge, nonce))
        finally:
            elapsed = time.monotonic() - start
            op.device_s += elapsed
            op.respond_s.append(elapsed)
        return response_type(session_id=challenge.session_id,
                             signature=signature, nonce=nonce)

    async def _identify(self, op: Op, spec: Spec) -> None:
        request = self._device(op, self.device.probe_sketch, spec.data)
        reply = await self._leg(op, "open", request)
        while isinstance(reply, IdentificationChallenge):
            try:
                response = self._respond(
                    op, IdentificationResponse, spec.data, reply)
            except RecoveryError:
                # A false sketch match: ask for the next candidate.
                response = IdentificationDecline(session_id=reply.session_id)
            reply = await self._leg(op, "respond", response)
        if not (isinstance(reply, IdentificationOutcome) and reply.identified
                and reply.user_id == spec.expect):
            raise WrongAnswer(f"identification of {spec.expect!r} "
                              f"answered {reply!r}")

    async def _verify(self, op: Op, spec: Spec) -> None:
        user_id = self.identities.user_id(spec.identity)
        reply = await self._leg(op, "open", VerificationRequest(user_id))
        if not isinstance(reply, VerificationChallenge):
            raise WrongAnswer(f"verification request for {user_id!r} "
                              f"answered {reply!r}")
        try:
            response = self._respond(
                op, VerificationResponse, spec.data, reply)
        except RecoveryError as exc:
            raise WrongAnswer(f"Rep rejected a genuine reading of "
                              f"{user_id!r}: {exc}") from exc
        reply = await self._leg(op, "respond", response)
        if not (isinstance(reply, VerificationOutcome) and reply.verified
                and reply.user_id == spec.expect):
            raise WrongAnswer(f"verification of {spec.expect!r} "
                              f"answered {reply!r}")

    async def _enroll(self, op: Op, spec: Spec) -> None:
        user_id = self.identities.user_id(spec.identity)
        submission = self._device(op, self.device.enroll, user_id, spec.data)
        ack = await self._leg(op, "open", submission)
        if not (isinstance(ack, EnrollmentAck) and ack.accepted
                and ack.user_id == spec.expect):
            raise WrongAnswer(f"enrollment of {spec.expect!r} "
                              f"answered {ack!r}")
        self._enrolled_future(spec.identity).set_result(None)


async def closed_loop(gen: Generator, work, seconds: float,
                      in_flight: int) -> tuple[list[Op], float, float]:
    """``in_flight`` workers, each starting its next op when one ends.

    Returns every op started, and the measurement window; ops still in
    flight when the window closes run to completion outside it.
    """
    start = time.monotonic()
    end = start + seconds
    ops: list[Op] = []

    async def worker() -> None:
        while time.monotonic() < end:
            ops.append(await gen.run(next(work)))

    await asyncio.gather(*(worker() for _ in range(in_flight)))
    return ops, start, end


async def open_loop(gen: Generator, work: list[Spec],
                    offsets: np.ndarray) -> tuple[list[Op], float]:
    """Start ``work[i]`` at ``offsets[i]`` seconds, whatever is in flight.

    Latency is timed from each op's due time, so a stalled generator or
    server charges the wait to every op it delays.
    """
    start = time.monotonic()
    tasks = []
    for spec, offset in zip(work, offsets):
        due = start + float(offset)
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(gen.run(spec, due)))
    return list(await asyncio.gather(*tasks)), start
