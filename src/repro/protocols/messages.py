"""Typed protocol messages with canonical byte encodings.

Every message that crosses the (simulated) wire between the biometric
device ``BioD`` and the authentication server ``AS`` is a frozen dataclass
with an injective byte encoding, so:

* transports can count real wire bytes (the paper's communication-cost
  discussion is about helper-data transmission);
* adversary hooks can manipulate real encodings, not Python objects;
* both endpoints re-parse what they receive — malformed data raises
  :class:`~repro.exceptions.ProtocolError` rather than propagating junk.

Encoding format: a 2-byte type tag followed by length-prefixed chunks
(8-byte big-endian lengths).  Strings are UTF-8; integer vectors use the
canonical compact encoding from :mod:`repro.crypto.hashing` (one width
byte, then the smallest fixed width that holds every coordinate).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Type, TypeVar

import numpy as np

from repro.crypto.hashing import (
    decode_compact_int_vector,
    encode_compact_int_vector,
)
from repro.exceptions import ProtocolError

_M = TypeVar("_M", bound="Message")

_REGISTRY: dict[int, Type["Message"]] = {}


def registered_message_types() -> dict[int, Type["Message"]]:
    """Snapshot of the type-tag registry (tag -> message class).

    The wire-fuzz suite iterates this so every registered encoding is
    exercised; transports can use it to enumerate what may legally
    arrive on a connection.
    """
    return dict(_REGISTRY)


def _pack_chunks(chunks: list[bytes]) -> bytes:
    out = []
    for chunk in chunks:
        out.append(len(chunk).to_bytes(8, "big"))
        out.append(chunk)
    return b"".join(out)


def _unpack_chunks(data: bytes, expected: int) -> list[bytes]:
    chunks = []
    offset = 0
    while offset < len(data):
        if offset + 8 > len(data):
            raise ProtocolError("truncated chunk length")
        length = int.from_bytes(data[offset: offset + 8], "big")
        offset += 8
        if offset + length > len(data):
            raise ProtocolError("truncated chunk body")
        chunks.append(data[offset: offset + length])
        offset += length
    if len(chunks) != expected:
        raise ProtocolError(
            f"expected {expected} chunks, found {len(chunks)}"
        )
    return chunks


@dataclass(frozen=True)
class Message:
    """Base class: encoding, decoding, and the type registry."""

    TYPE_TAG: ClassVar[int] = -1

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.TYPE_TAG < 0:
            raise TypeError(f"{cls.__name__} must define a TYPE_TAG")
        if cls.TYPE_TAG in _REGISTRY:
            raise TypeError(
                f"TYPE_TAG {cls.TYPE_TAG} already used by "
                f"{_REGISTRY[cls.TYPE_TAG].__name__}"
            )
        _REGISTRY[cls.TYPE_TAG] = cls

    # -- field (de)serialisation helpers ------------------------------------

    def _encode_field(self, value) -> bytes:
        if isinstance(value, bytes):
            return value
        if isinstance(value, str):
            return value.encode("utf-8")
        if isinstance(value, bool):
            return bytes([1 if value else 0])
        if isinstance(value, np.ndarray):
            return encode_compact_int_vector(value)
        if value is None:
            return b"\xff"  # distinguished None marker for optional strings
        raise TypeError(f"cannot encode field of type {type(value)!r}")

    def encode_buffers(self) -> list[bytes]:
        """Canonical wire bytes as a flat buffer list, never joined.

        ``[tag, len_1, chunk_1, len_2, chunk_2, ...]`` — exactly the
        concatenation :meth:`encode` produces, but left as the pieces so
        the send side (:func:`~repro.net.framing.frame_buffers`) can
        hand them straight to a gathered write.  Large fields (helper
        blobs, packed batches, sketch encodings) therefore cross from
        message object to kernel without one intermediate ``bytes``
        join.
        """
        buffers = [self.TYPE_TAG.to_bytes(2, "big")]
        for f in fields(self):
            chunk = self._encode_field(getattr(self, f.name))
            buffers.append(len(chunk).to_bytes(8, "big"))
            buffers.append(chunk)
        return buffers

    def encode(self) -> bytes:
        """Canonical wire bytes: type tag + length-prefixed fields."""
        return b"".join(self.encode_buffers())

    @classmethod
    def decode(cls: Type[_M], data: bytes) -> _M:
        """Decode bytes into the message type they claim to be.

        When called on :class:`Message`, dispatches on the type tag; when
        called on a subclass, additionally enforces that the tag matches
        (a wrong-type message is a protocol violation).
        """
        if len(data) < 2:
            raise ProtocolError("message shorter than the type tag")
        tag = int.from_bytes(data[:2], "big")
        target = _REGISTRY.get(tag)
        if target is None:
            raise ProtocolError(f"unknown message type tag {tag}")
        if cls is not Message and target is not cls:
            raise ProtocolError(
                f"expected {cls.__name__}, received {target.__name__}"
            )
        field_list = fields(target)
        chunks = _unpack_chunks(data[2:], len(field_list))
        kwargs = {}
        for f, chunk in zip(field_list, chunks):
            try:
                kwargs[f.name] = target._decode_field(f.name, chunk)
            except ProtocolError:
                raise
            except Exception as exc:
                # Per the module contract, malformed wire data surfaces as
                # ProtocolError only — a server loop must survive any frame.
                raise ProtocolError(
                    f"{target.__name__}.{f.name}: malformed field ({exc})"
                ) from exc
        return target(**kwargs)  # type: ignore[return-value]

    @classmethod
    def _decode_field(cls, name: str, chunk):
        """Default decoding by annotation; subclasses override per field.

        ``chunk`` may be a ``memoryview`` into the receive buffer (the
        zero-copy wire path slices frames without materializing them);
        each branch converts to the field's real type at this leaf, so no
        intermediate ``bytes`` copy exists between the socket and the
        decoded value.
        """
        annotation = cls.__annotations__.get(name, "bytes")
        text = str(annotation)
        if "ndarray" in text:
            return decode_compact_int_vector(chunk)
        if text in ("str", "builtins.str"):
            return str(chunk, "utf-8")
        if text in ("bool", "builtins.bool"):
            if chunk == b"\x01":
                return True
            if chunk == b"\x00":
                return False
            raise ProtocolError(
                f"invalid bool encoding {bytes(chunk)!r} for field {name}"
            )
        if "str | None" in text or "Optional[str]" in text:
            return None if chunk == b"\xff" else str(chunk, "utf-8")
        return bytes(chunk)


# --------------------------------------------------------------------------
# Enrollment (paper Fig. 1)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EnrollmentSubmission(Message):
    """``BioD -> AS``: ``(ID, pk, P)`` — the only data the server stores."""

    TYPE_TAG: ClassVar[int] = 1

    user_id: str
    verify_key: bytes
    helper_data: bytes


@dataclass(frozen=True)
class EnrollmentAck(Message):
    """``AS -> BioD``: enrollment accepted or refused (duplicate ID)."""

    TYPE_TAG: ClassVar[int] = 2

    user_id: str
    accepted: bool


# --------------------------------------------------------------------------
# Proposed identification (paper Fig. 3)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentificationRequest(Message):
    """``BioD -> AS``: the fresh plain sketch ``s'`` of the presented biometric."""

    TYPE_TAG: ClassVar[int] = 3

    sketch: np.ndarray


@dataclass(frozen=True)
class IdentificationChallenge(Message):
    """``AS -> BioD``: matched record's helper data ``P`` plus challenge ``c``."""

    TYPE_TAG: ClassVar[int] = 4

    helper_data: bytes
    challenge: bytes
    session_id: bytes


@dataclass(frozen=True)
class IdentificationResponse(Message):
    """``BioD -> AS``: signature ``σ`` over ``(c, a)`` and the nonce ``a``."""

    TYPE_TAG: ClassVar[int] = 5

    session_id: bytes
    signature: bytes
    nonce: bytes


@dataclass(frozen=True)
class IdentificationOutcome(Message):
    """``AS -> BioD``: the identified ``ID``, or ``⊥`` (``identified=False``)."""

    TYPE_TAG: ClassVar[int] = 6

    identified: bool
    user_id: str | None


@dataclass(frozen=True)
class IdentificationDecline(Message):
    """``BioD -> AS``: the device could not reproduce a key for the offered
    helper data (tampering or a false sketch match) and asks the server to
    try its next candidate, if any."""

    TYPE_TAG: ClassVar[int] = 14

    session_id: bytes


# --------------------------------------------------------------------------
# Verification mode (claimed identity, 1:1)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationRequest(Message):
    """``BioD -> AS``: a claimed identity to verify."""

    TYPE_TAG: ClassVar[int] = 7

    user_id: str


@dataclass(frozen=True)
class VerificationChallenge(Message):
    """``AS -> BioD``: the claimed user's ``P`` plus a fresh challenge."""

    TYPE_TAG: ClassVar[int] = 8

    helper_data: bytes
    challenge: bytes
    session_id: bytes


@dataclass(frozen=True)
class VerificationResponse(Message):
    """``BioD -> AS``: signature over ``(c, a)`` plus the nonce."""

    TYPE_TAG: ClassVar[int] = 9

    session_id: bytes
    signature: bytes
    nonce: bytes


@dataclass(frozen=True)
class VerificationOutcome(Message):
    """``AS -> BioD``: accept / reject for the claimed identity."""

    TYPE_TAG: ClassVar[int] = 10

    verified: bool
    user_id: str


# --------------------------------------------------------------------------
# Normal-approach identification (paper Fig. 2): O(N) helper transmission
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineIdentificationRequest(Message):
    """``BioD -> AS``: request all helper records (no sketch is sent)."""

    TYPE_TAG: ClassVar[int] = 11

    request: bytes  # opaque marker; kept for wire-size accounting


@dataclass(frozen=True)
class BaselineChallengeBatch(Message):
    """``AS -> BioD``: every enrolled ``(ID_i, P_i)`` plus challenges ``c_i``.

    The paper's Fig. 2 sends ``P_i, c_i`` for ``i = 1..n`` — the entire
    helper database crosses the wire, which is the communication cost the
    proposed protocol's sketch search eliminates.
    """

    TYPE_TAG: ClassVar[int] = 12

    user_ids: bytes      # packed list of UTF-8 ids
    helper_blobs: bytes  # packed list of helper encodings
    challenge: bytes
    session_id: bytes

    @staticmethod
    def pack_list(items: list[bytes]) -> bytes:
        return _pack_chunks(items)

    @staticmethod
    def unpack_list(data: bytes) -> list[bytes]:
        chunks = []
        offset = 0
        while offset < len(data):
            if offset + 8 > len(data):
                raise ProtocolError("truncated packed list")
            length = int.from_bytes(data[offset: offset + 8], "big")
            offset += 8
            if offset + length > len(data):
                raise ProtocolError("truncated packed list body")
            chunks.append(data[offset: offset + length])
            offset += length
        return chunks


@dataclass(frozen=True)
class BaselineResponseBatch(Message):
    """``BioD -> AS``: one signature attempt per enrolled record."""

    TYPE_TAG: ClassVar[int] = 13

    session_id: bytes
    signatures: bytes  # packed list; empty chunk = Rep failed for that record
    nonce: bytes


# --------------------------------------------------------------------------
# Transport-level error reporting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReply(Message):
    """``AS -> BioD``: a typed failure frame from a network server.

    The TCP transport answers a request it cannot serve with one of
    these instead of tearing the connection down silently, so clients
    can map server-side conditions back onto the exception the
    in-process stack would have raised (``code="overload"`` becomes
    :class:`~repro.exceptions.ServiceOverloadError`, which is how the
    service frontend's backpressure crosses the wire).

    ``code`` is a stable machine-readable tag (``overload``, ``closed``,
    ``protocol``, ``internal``, ``retry``); ``detail`` is human-readable
    context.  ``retry_after`` is an optional backoff hint: empty (the
    default, so existing two-argument constructor call sites stand) or a 4-byte
    big-endian millisecond count the server derives from its queue
    depth and batching linger — clients honoring it back off
    proportionally instead of hammering an overloaded server.
    """

    TYPE_TAG: ClassVar[int] = 15

    code: str
    detail: str
    retry_after: bytes = b""

    @staticmethod
    def make(code: str, detail: str,
             retry_after_ms: int | None = None) -> "ErrorReply":
        """Build an error frame, packing the optional backoff hint."""
        hint = b"" if retry_after_ms is None else \
            max(0, min(int(retry_after_ms), 2**32 - 1)).to_bytes(4, "big")
        return ErrorReply(code=code, detail=detail, retry_after=hint)

    def retry_after_ms(self) -> int | None:
        """Decode the backoff hint (``None`` when absent or malformed —
        a garbled hint degrades to no hint, never to an error)."""
        if len(self.retry_after) != 4:
            return None
        return int.from_bytes(self.retry_after, "big")


# --------------------------------------------------------------------------
# Observability: trace propagation and stats scraping
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TracedEnvelope(Message):
    """Optional wrapper carrying a request-trace id alongside any message.

    Tracing is an *envelope*, not a new field on every message: the
    fifteen existing encodings stay byte-identical (wire-size accounting
    and recorded transcripts are unaffected), and a peer that has never
    heard of tracing simply never sends tag 16.  ``body`` is the full
    canonical encoding of the inner message; endpoints unwrap, handle
    the inner message, and wrap the reply in an envelope bearing the
    same ``trace_id`` — including :class:`ErrorReply`, so failures stay
    attributable to the request that caused them.
    """

    TYPE_TAG: ClassVar[int] = 16

    trace_id: bytes
    body: bytes

    def inner(self) -> "Message":
        """Decode the wrapped message (malformed → ``ProtocolError``)."""
        return Message.decode(self.body)

    @staticmethod
    def wrap(message: "Message", trace_id: bytes) -> "TracedEnvelope":
        """Wrap ``message`` in an envelope bearing ``trace_id``."""
        return TracedEnvelope(trace_id=trace_id, body=message.encode())


@dataclass(frozen=True)
class DeadlineEnvelope(Message):
    """Optional wrapper carrying a request's remaining deadline budget.

    Like :class:`TracedEnvelope`, deadlines are an *envelope* rather
    than a field on every message: clients that never set a deadline
    send byte-identical frames, and a server that has never heard of
    tag 27 simply never receives one from its own clients.  ``budget``
    is the remaining time the client is still willing to wait, packed
    as 4-byte big-endian milliseconds; the server stamps
    ``arrival + budget`` on the queued op and sheds it with
    ``ErrorReply(code="expired")`` once the budget elapses, instead of
    scanning for an answer nobody is waiting on.

    Nesting order when combined with tracing is fixed:
    ``TracedEnvelope(DeadlineEnvelope(request))`` — the trace id is the
    outermost layer so failure replies stay attributable even when the
    deadline layer sheds them.  A deadline envelope must not nest
    another envelope.
    """

    TYPE_TAG: ClassVar[int] = 27

    budget: bytes
    body: bytes

    def inner(self) -> "Message":
        """Decode the wrapped message (malformed → ``ProtocolError``)."""
        return Message.decode(self.body)

    @staticmethod
    def wrap(message: "Message", budget_ms: int) -> "DeadlineEnvelope":
        """Wrap ``message`` with a remaining budget of ``budget_ms``."""
        packed = max(0, min(int(budget_ms), 2**32 - 1)).to_bytes(4, "big")
        return DeadlineEnvelope(budget=packed, body=message.encode())

    def budget_ms(self) -> int:
        """Decode the packed budget (malformed → ``ProtocolError``)."""
        if len(self.budget) != 4:
            raise ProtocolError("deadline budget must be 4 bytes")
        return int.from_bytes(self.budget, "big")


@dataclass(frozen=True)
class StatsRequest(Message):
    """``admin -> AS``: scrape the server's observability state.

    ``query`` selects the payload: ``"all"`` (metrics + traces + wire),
    ``"metrics"``, or ``"traces"``.  An unknown query is a protocol
    error — scrapers should fail loudly, not silently get less data.
    ``limit`` bounds how many traces are returned (0 = server default).
    """

    TYPE_TAG: ClassVar[int] = 17

    query: str
    limit: bytes  # 4-byte big-endian unsigned trace limit

    @staticmethod
    def make(query: str = "all", limit: int = 0) -> "StatsRequest":
        """Build a request with ``limit`` packed into its wire form."""
        return StatsRequest(query=query, limit=int(limit).to_bytes(4, "big"))

    def trace_limit(self) -> int:
        """Decode the packed ``limit`` field."""
        if len(self.limit) != 4:
            raise ProtocolError("stats limit must be 4 bytes")
        return int.from_bytes(self.limit, "big")


@dataclass(frozen=True)
class StatsReply(Message):
    """``AS -> admin``: observability snapshot as a JSON document.

    The payload is the JSON-ready shape the obs layer already produces
    (:meth:`MetricsRegistry.collect` samples, ``Tracer.traces_json``
    entries, and the server's wire/endpoint snapshots), so the
    ``repro stats`` CLI renders a remote process with the same code
    paths the local exports use.
    """

    TYPE_TAG: ClassVar[int] = 18

    payload: str


# --------------------------------------------------------------------------
# Replication: journal streaming from primary to warm standby
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicateSubscribe(Message):
    """``standby -> primary``: pull journal entries from an offset.

    The transport is strict request/reply, so replication is a *poll*:
    the follower asks for entries from its own head sequence, applies
    what comes back, and asks again — catch-up from any offset and
    steady-state tailing are the same loop.  ``from_seq`` is an 8-byte
    big-endian journal sequence; ``max_entries`` a 4-byte big-endian
    batch bound (0 = server default).
    """

    TYPE_TAG: ClassVar[int] = 19

    from_seq: bytes
    max_entries: bytes

    @staticmethod
    def make(from_seq: int, max_entries: int = 0) -> "ReplicateSubscribe":
        """Build a subscribe request with packed wire fields."""
        return ReplicateSubscribe(
            from_seq=int(from_seq).to_bytes(8, "big"),
            max_entries=int(max_entries).to_bytes(4, "big"))

    def values(self) -> tuple[int, int]:
        """Decode ``(from_seq, max_entries)``."""
        if len(self.from_seq) != 8 or len(self.max_entries) != 4:
            raise ProtocolError("malformed replicate-subscribe fields")
        return (int.from_bytes(self.from_seq, "big"),
                int.from_bytes(self.max_entries, "big"))


@dataclass(frozen=True)
class ReplicateRecords(Message):
    """``primary -> standby``: one batch of journal entries.

    ``entries`` is a packed list (same framing as
    :meth:`BaselineChallengeBatch.pack_list`) of canonical journal
    payloads, consecutive from ``from_seq``; ``head_seq`` is the
    primary's journal head, so the follower knows its remaining lag
    without another round trip.
    """

    TYPE_TAG: ClassVar[int] = 20

    from_seq: bytes
    head_seq: bytes
    entries: bytes

    @staticmethod
    def make(from_seq: int, head_seq: int,
             payloads: list[bytes]) -> "ReplicateRecords":
        """Build a batch with packed wire fields."""
        return ReplicateRecords(
            from_seq=int(from_seq).to_bytes(8, "big"),
            head_seq=int(head_seq).to_bytes(8, "big"),
            entries=BaselineChallengeBatch.pack_list(payloads))

    def values(self) -> tuple[int, int, list[bytes]]:
        """Decode ``(from_seq, head_seq, payload_list)``."""
        if len(self.from_seq) != 8 or len(self.head_seq) != 8:
            raise ProtocolError("malformed replicate-records fields")
        return (int.from_bytes(self.from_seq, "big"),
                int.from_bytes(self.head_seq, "big"),
                BaselineChallengeBatch.unpack_list(self.entries))


# --------------------------------------------------------------------------
# Health: liveness + readiness probing (failover endpoint selection)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HealthRequest(Message):
    """``admin/client -> AS``: probe liveness and readiness.

    Answered on the server's event-loop thread (never the handler
    pool), so a wedged endpoint still reports *alive* while its
    readiness flag goes false — the distinction failover clients key
    endpoint preference off.
    """

    TYPE_TAG: ClassVar[int] = 21

    probe: bytes  # opaque marker; kept for wire-size accounting


@dataclass(frozen=True)
class HealthReply(Message):
    """``AS -> admin/client``: liveness + readiness snapshot (JSON).

    The payload carries ``alive``, ``ready``, ``role``, queue depth and
    capacity, the overload/degraded flags, enrolled count, journal head
    sequence, and (on a follower) replication lag — everything the
    resilience layer needs to prefer ready endpoints and everything
    ``repro stats --health`` renders.
    """

    TYPE_TAG: ClassVar[int] = 22

    payload: str


# --------------------------------------------------------------------------
# Sketch lifecycle: rotate / revoke enrolled sketch versions
# --------------------------------------------------------------------------

#: Wire sentinel for "every version" in :class:`RevokeRequest` —
#: mirrors :data:`repro.engine.lifecycle.ALL_VERSIONS` without the
#: protocol layer importing the engine.
REVOKE_ALL_VERSIONS = 0xFFFFFFFF


@dataclass(frozen=True)
class RotateRequest(Message):
    """``BioD -> AS``: a fresh sketch version for an enrolled identity.

    Carries the same ``(ID, pk, P)`` triple as an
    :class:`EnrollmentSubmission`, but for a user the server must
    already know — the server appends it as a new *version* instead of
    a new identity.  ``supersede`` selects the lifecycle semantics:
    ``True`` is a **rotate** (the old active sketch is burnt — it stops
    verifying and the next compaction drops it), ``False`` a
    **re-enroll** (the old sketch stays verify-only, e.g. a second
    reading of the same finger).
    """

    TYPE_TAG: ClassVar[int] = 23

    user_id: str
    verify_key: bytes
    helper_data: bytes
    supersede: bool


@dataclass(frozen=True)
class RotateAck(Message):
    """``AS -> BioD``: outcome of a rotate/re-enroll.

    ``version`` is the new active version index packed as 4 bytes
    big-endian when ``accepted``, empty otherwise (an unknown identity).
    """

    TYPE_TAG: ClassVar[int] = 24

    user_id: str
    accepted: bool
    version: bytes

    @staticmethod
    def make(user_id: str, accepted: bool,
             version: int | None = None) -> "RotateAck":
        """Build an ack with ``version`` packed into its wire form."""
        packed = b"" if version is None else int(version).to_bytes(4, "big")
        return RotateAck(user_id=user_id, accepted=accepted, version=packed)

    def version_number(self) -> int | None:
        """Decode the packed ``version`` field (``None`` when refused)."""
        if not self.version:
            return None
        if len(self.version) != 4:
            raise ProtocolError("rotate ack version must be 4 bytes")
        return int.from_bytes(self.version, "big")


@dataclass(frozen=True)
class RevokeRequest(Message):
    """``admin/BioD -> AS``: revoke sketch version(s) of an identity.

    ``version`` is a 4-byte big-endian version index, or the
    :data:`REVOKE_ALL_VERSIONS` sentinel to revoke every live version
    (the "lost finger" case — the identity goes dark until a fresh
    enrollment).  Revocation is idempotent, so failover clients may
    retry it blindly.
    """

    TYPE_TAG: ClassVar[int] = 25

    user_id: str
    version: bytes

    @staticmethod
    def make(user_id: str,
             version: int | None = None) -> "RevokeRequest":
        """Build a request; ``version=None`` means every version."""
        packed = REVOKE_ALL_VERSIONS if version is None else int(version)
        return RevokeRequest(user_id=user_id,
                             version=packed.to_bytes(4, "big"))

    def version_number(self) -> int | None:
        """Decode the packed ``version`` (``None`` = every version)."""
        if len(self.version) != 4:
            raise ProtocolError("revoke version must be 4 bytes")
        value = int.from_bytes(self.version, "big")
        return None if value == REVOKE_ALL_VERSIONS else value


@dataclass(frozen=True)
class RevokeAck(Message):
    """``AS -> admin/BioD``: how many versions a revoke newly retired.

    ``revoked`` is a 4-byte big-endian count; 0 means the request was a
    no-op (unknown identity, out-of-range version, or already revoked)
    — which, revocation being idempotent, is still success.
    """

    TYPE_TAG: ClassVar[int] = 26

    user_id: str
    revoked: bytes

    @staticmethod
    def make(user_id: str, revoked: int) -> "RevokeAck":
        """Build an ack with the count packed into its wire form."""
        return RevokeAck(user_id=user_id,
                         revoked=int(revoked).to_bytes(4, "big"))

    def revoked_count(self) -> int:
        """Decode the packed ``revoked`` field."""
        if len(self.revoked) != 4:
            raise ProtocolError("revoke ack count must be 4 bytes")
        return int.from_bytes(self.revoked, "big")
