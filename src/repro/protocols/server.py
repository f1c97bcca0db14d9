"""The authentication server ``AS``.

Holds the helper-data store and drives the server side of every protocol:

* enrollment — store ``(ID, pk, P)`` (Fig. 1);
* proposed identification — search the sketch index with the received
  probe, send the matched ``P`` with a fresh challenge, verify the
  signature (Fig. 3);
* verification — look the claimed ``ID`` up, challenge, verify;
* normal-approach identification — ship *all* records with per-record
  challenges and verify the returned signatures one by one (Fig. 2).

Challenges are one-shot: each outstanding session is consumed by the first
response that references it, giving replay protection (a replayed
signature names a dead session and is rejected).  Outstanding sessions
live in a bounded, TTL-expiring :class:`~repro.protocols.sessions.SessionStore`
— a challenged device that never responds costs memory only until its
session expires (or is LRU-evicted past the cap), and every such drop is
audited (``identify-expired`` / ``verify-expired`` / ``baseline-expired``).

Handlers are stateless over that store and safe to call from multiple
threads: the session store, the DRBG, and the audit trail each take a
small internal lock, and signature verification shares the lock-safe
:class:`~repro.crypto.signatures.VerifyTableCache`.  The one exception is
enrollment, which mutates the record store — callers that enroll
concurrently must serialise those calls (the service frontend routes them
through its single batcher thread).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.core.params import SystemParams
from repro.crypto.prng import HmacDrbg
from repro.crypto.signatures import SignatureScheme, VerifyTableCache
from repro.exceptions import EnrollmentError, ParameterError, ProtocolError
from repro.protocols.database import UserRecord
from repro.protocols.device import signed_payload
from repro.protocols.messages import (
    BaselineChallengeBatch,
    BaselineIdentificationRequest,
    BaselineResponseBatch,
    EnrollmentAck,
    EnrollmentSubmission,
    IdentificationChallenge,
    IdentificationDecline,
    IdentificationOutcome,
    IdentificationRequest,
    IdentificationResponse,
    ReplicateRecords,
    ReplicateSubscribe,
    RevokeAck,
    RevokeRequest,
    RotateAck,
    RotateRequest,
    VerificationChallenge,
    VerificationOutcome,
    VerificationRequest,
    VerificationResponse,
)
from repro.protocols.sessions import EvictedSession, PendingSession, SessionStore

if TYPE_CHECKING:
    from repro.engine.engine import EngineStats, IdentificationEngine

_CHALLENGE_BYTES = 16

#: Entries per replication batch when the subscriber does not bound it.
DEFAULT_REPLICATION_BATCH = 512


@dataclass(frozen=True)
class AuditEvent:
    """One entry in the server's audit trail.

    ``kind`` is a stable machine-readable tag (``enroll-ok``,
    ``enroll-refused``, ``identify-challenge``, ``identify-ok``,
    ``identify-fail``, ``identify-decline``, ``identify-expired``,
    ``verify-ok``, ``verify-fail``, ``verify-expired``,
    ``baseline-batch``, ``baseline-expired``); ``sequence`` orders events
    within one server instance.
    """

    sequence: int
    kind: str
    user_id: str | None = None
    detail: str = ""


class AuthenticationServer:
    """``AS``: storage, sketch search, challenge issuance, verification.

    ``max_candidates`` caps how many sketch-matched records one
    identification attempt may challenge in sequence; each failed or
    declined challenge moves to the next candidate, so a false-close
    record enrolled ahead of the genuine user cannot deny them service.

    ``store`` is the :class:`~repro.engine.engine.IdentificationEngine`
    holding the enrollment records; the default is an in-memory,
    single-shard, unjournaled engine (see :meth:`with_engine` for a
    sharded one).

    Every signature verification runs through the store's
    :class:`~repro.crypto.signatures.VerifyTableCache`
    (``store.key_tables``): the per-user verify-key tables are built
    lazily once a key recurs, live alongside the helper-data records,
    and survive server re-instantiation over the same engine.  Size the
    cache with the engine's ``key_table_capacity``.

    ``session_ttl_s`` / ``max_sessions`` bound the outstanding-challenge
    state (see the module docstring); pass a pre-built ``sessions`` store
    instead to control the clock or share a store — the server installs
    its audit hook as the store's ``on_evict`` either way.
    """

    def __init__(self, params: SystemParams, scheme: SignatureScheme,
                 store: IdentificationEngine | None = None,
                 seed: bytes | None = None,
                 max_candidates: int = 4,
                 audit_capacity: int = 10_000,
                 session_ttl_s: float | None = 300.0,
                 max_sessions: int = 10_000,
                 sessions: SessionStore | None = None) -> None:
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self.params = params
        self.scheme = scheme
        if store is None:
            # Lazy import: the engine layer imports this package's
            # record type, so a module-level import would be a cycle.
            from repro.engine.engine import IdentificationEngine

            store = IdentificationEngine(params, shards=1)
        self.store = store
        self.max_candidates = max_candidates
        self.key_tables: VerifyTableCache = store.key_tables
        if seed is None:
            seed = np.random.default_rng().bytes(32)
        self._drbg = HmacDrbg(seed, personalization=b"auth-server")
        self._drbg_lock = threading.Lock()
        if sessions is None:
            sessions = SessionStore(capacity=max_sessions,
                                    ttl_s=session_ttl_s)
        self._sessions = sessions
        self._sessions.on_evict = self._session_evicted
        self._audit: deque[AuditEvent] = deque(maxlen=audit_capacity)
        self._audit_lock = threading.Lock()
        self._audit_sequence = itertools.count()

    def _verify(self, record: UserRecord, payload: bytes,
                signature: bytes) -> bool:
        """Signature check against ``record``'s key via the warm-table cache."""
        return self.key_tables.verify(self.scheme, record.verify_key,
                                      payload, signature)

    @classmethod
    def with_engine(cls, params: SystemParams, scheme: SignatureScheme,
                    shards: int = 4, workers: int | None = None,
                    **kwargs) -> "AuthenticationServer":
        """A server whose store is a sharded
        :class:`~repro.engine.engine.IdentificationEngine`.

        Extra keyword arguments pass through to the constructor.  The
        engine import is lazy, as in the constructor, to keep the
        package graph acyclic.
        """
        from repro.engine.engine import IdentificationEngine

        store = IdentificationEngine(params, shards=shards, workers=workers)
        return cls(params, scheme, store=store, **kwargs)

    def engine_stats(self) -> EngineStats:
        """The store's :class:`~repro.engine.engine.EngineStats` snapshot."""
        return self.store.stats()

    # -- sessions -----------------------------------------------------------------

    def _new_tokens(self, count: int = 1) -> tuple[bytes, ...]:
        """``count`` challenge bytes plus a session id, atomically drawn."""
        with self._drbg_lock:
            return tuple(self._drbg.generate(_CHALLENGE_BYTES)
                         for _ in range(count)) + (self._drbg.generate(16),)

    def _session_evicted(self, evicted: EvictedSession) -> None:
        """Audit hook the session store calls on TTL expiry / LRU eviction."""
        session = evicted.session
        user_id = session.records[0].user_id if session.records else None
        self._record_event(
            f"{session.mode}-expired", user_id,
            "challenge abandoned (ttl)" if evicted.reason == "expired"
            else "challenge abandoned (capacity eviction)",
        )

    def outstanding_sessions(self) -> int:
        """How many challenges are currently awaiting a response."""
        return len(self._sessions)

    # -- audit trail ---------------------------------------------------------------

    def _record_event(self, kind: str, user_id: str | None = None,
                      detail: str = "") -> None:
        with self._audit_lock:
            self._audit.append(AuditEvent(
                sequence=next(self._audit_sequence), kind=kind,
                user_id=user_id, detail=detail,
            ))
        # Mirror into the structured event log (a no-op unless one is
        # configured), tagged with the request trace when the serving
        # layer has bound one to this thread.  Session-expiry audit
        # events flow through here too, via the on_evict hook.
        trace = obs.tracer.current()
        obs.events.emit("audit", event=kind, user=user_id, detail=detail,
                        trace=trace.hex() if trace else None)

    def audit_log(self, kind: str | None = None) -> list[AuditEvent]:
        """Snapshot of the audit trail, optionally filtered by kind."""
        with self._audit_lock:
            events = list(self._audit)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        return events

    # -- enrollment -------------------------------------------------------------

    def handle_enrollment(self, submission: EnrollmentSubmission) -> EnrollmentAck:
        """Store ``(ID, pk, P)``; refuse duplicates, dedupe resubmissions.

        A duplicate identity whose ``(pk, P)`` bytes match the stored
        record is acknowledged ``accepted=True`` without touching the
        store: enrollment is idempotent over identical submissions, so
        a resilient client that lost the ack to a torn connection can
        safely resend the same frame (the failover retry path) — the
        record is never double-enrolled and a *different* payload under
        the same identity is still refused.
        """
        record = UserRecord(
            user_id=submission.user_id,
            verify_key=submission.verify_key,
            helper_data=submission.helper_data,
        )
        try:
            self.store.add(record)
        except EnrollmentError:
            existing = self.store.get(submission.user_id)
            if existing is not None and existing == record:
                self._record_event("enroll-dedup", submission.user_id,
                                   "idempotent resubmission")
                return EnrollmentAck(user_id=submission.user_id,
                                     accepted=True)
            self._record_event("enroll-refused", submission.user_id,
                               "duplicate identity")
            return EnrollmentAck(user_id=submission.user_id, accepted=False)
        self._record_event("enroll-ok", submission.user_id)
        return EnrollmentAck(user_id=submission.user_id, accepted=True)

    # -- sketch lifecycle (rotate / revoke) ----------------------------------------

    def handle_rotate(self, request: RotateRequest) -> RotateAck:
        """Append a new sketch version for an already-enrolled identity.

        ``supersede`` selects rotate (old active sketch burnt) versus
        re-enroll (old sketch stays verify-only).  Mirrors enrollment's
        idempotence: a resubmission whose ``(pk, P)`` bytes match the
        *current active* record is acknowledged with the active version
        and never double-applied, so the failover retry path can resend
        a rotate whose ack was lost to a torn connection.  An unknown
        identity is refused (enroll first).
        """
        apply_op = self.store.rotate if request.supersede \
            else self.store.reenroll
        record = UserRecord(
            user_id=request.user_id,
            verify_key=request.verify_key,
            helper_data=request.helper_data,
        )
        existing = self.store.get(request.user_id)
        if existing is not None and existing == record:
            version = self.store.active_version(request.user_id)
            self._record_event("rotate-dedup", request.user_id,
                               "idempotent resubmission")
            return RotateAck.make(request.user_id, True, version)
        try:
            version = apply_op(record)
        except EnrollmentError as exc:
            self._record_event("rotate-refused", request.user_id, str(exc))
            return RotateAck.make(request.user_id, False)
        self._record_event("rotate-ok" if request.supersede
                           else "reenroll-ok", request.user_id,
                           f"version {version}")
        return RotateAck.make(request.user_id, True, version)

    def handle_revoke(self, request: RevokeRequest) -> RevokeAck:
        """Revoke sketch version(s); idempotent, so safe to retry blindly.

        The ack carries how many versions were *newly* retired — 0 for
        an unknown identity, an out-of-range version, or one already
        revoked, all of which are still success (the requested state
        holds).
        """
        version = request.version_number()
        count = self.store.revoke(request.user_id, version)
        target = "all versions" if version is None else f"version {version}"
        self._record_event("revoke-ok" if count else "revoke-noop",
                           request.user_id,
                           f"{target}: {count} newly revoked")
        return RevokeAck.make(request.user_id, count)

    # -- proposed identification (Fig. 3) ------------------------------------------

    def _challenge_candidates(
        self, candidates: tuple[UserRecord, ...],
    ) -> IdentificationChallenge:
        """Open a session challenging ``candidates[0]``."""
        challenge, session_id = self._new_tokens()
        self._sessions.put(session_id, PendingSession(
            mode="identify", records=candidates, challenges=(challenge,)
        ))
        return IdentificationChallenge(
            helper_data=candidates[0].helper_data,
            challenge=challenge,
            session_id=session_id,
        )

    def _respond_to_matches(
        self, matches: list[UserRecord],
    ) -> IdentificationChallenge | IdentificationOutcome:
        """Challenge the first sketch match, or return ``⊥`` on a miss."""
        if not matches:
            self._record_event("identify-fail", None, "no sketch match")
            return IdentificationOutcome(identified=False, user_id=None)
        self._record_event(
            "identify-challenge", matches[0].user_id,
            f"{len(matches)} candidate(s)",
        )
        return self._challenge_candidates(
            tuple(matches[: self.max_candidates])
        )

    def handle_identification_request(
        self, request: IdentificationRequest,
    ) -> IdentificationChallenge | IdentificationOutcome:
        """Sketch search; challenge on a hit, ``⊥`` on a miss.

        Multiple matches are theoretically possible (false-close
        probability, Theorem 2); matches are challenged in enrollment
        order, moving to the next on a failed or declined response.
        """
        return self._respond_to_matches(self.store.find_by_sketch(request.sketch))

    def handle_identification_batch(
        self, requests: Sequence[IdentificationRequest],
    ) -> list[IdentificationChallenge | IdentificationOutcome]:
        """Answer ``B`` identification requests with one batched search.

        Routes the stacked ``(B, n)`` probe matrix through the store's
        ``find_by_sketch_batch`` kernel, so the per-probe scan cost is
        amortised across the batch; the
        per-request challenge/outcome logic is exactly
        :meth:`handle_identification_request`'s.  This is the entry point
        the service frontend's micro-batcher drives.
        """
        if not requests:
            return []
        per_probe = self.store.find_by_sketch_batch(
            np.stack([request.sketch for request in requests]))
        return [self._respond_to_matches(matches) for matches in per_probe]

    def _advance_or_fail(
        self, session: PendingSession,
    ) -> IdentificationChallenge | IdentificationOutcome:
        remaining = session.records[1:]
        if remaining:
            return self._challenge_candidates(remaining)
        return IdentificationOutcome(identified=False, user_id=None)

    def handle_identification_response(
        self, response: IdentificationResponse,
    ) -> IdentificationChallenge | IdentificationOutcome:
        """Verify ``σ`` over ``(c, a)`` against the current candidate's
        ``pk``; on failure, fall through to the next candidate."""
        session = self._sessions.pop(response.session_id)
        if session is None or session.mode != "identify":
            return IdentificationOutcome(identified=False, user_id=None)
        record = session.records[0]
        payload = signed_payload(session.challenges[0], response.nonce)
        if self._verify(record, payload, response.signature):
            self._record_event("identify-ok", record.user_id)
            return IdentificationOutcome(identified=True, user_id=record.user_id)
        self._record_event("identify-fail", record.user_id,
                           "signature invalid")
        return self._advance_or_fail(session)

    def handle_identification_decline(
        self, decline: IdentificationDecline,
    ) -> IdentificationChallenge | IdentificationOutcome:
        """The device could not run ``Rep`` for the offered helper data
        (tampered record or false sketch match): try the next candidate."""
        session = self._sessions.pop(decline.session_id)
        if session is None or session.mode != "identify":
            return IdentificationOutcome(identified=False, user_id=None)
        self._record_event("identify-decline", session.records[0].user_id,
                           "device could not reproduce key")
        return self._advance_or_fail(session)

    # -- verification (1:1) ------------------------------------------------------------

    def handle_verification_request(
        self, request: VerificationRequest,
    ) -> VerificationChallenge | VerificationOutcome:
        """Look up the claimed identity; challenge it or reject outright."""
        record = self.store.get(request.user_id)
        if record is None:
            return VerificationOutcome(verified=False, user_id=request.user_id)
        challenge, session_id = self._new_tokens()
        self._sessions.put(session_id, PendingSession(
            mode="verify", records=(record,), challenges=(challenge,)
        ))
        return VerificationChallenge(
            helper_data=record.helper_data,
            challenge=challenge,
            session_id=session_id,
        )

    def handle_verification_response(
        self, response: VerificationResponse,
    ) -> VerificationOutcome:
        """Verify the signature for the claimed identity's session."""
        session = self._sessions.pop(response.session_id)
        if session is None or session.mode != "verify":
            return VerificationOutcome(verified=False, user_id="")
        record = session.records[0]
        payload = signed_payload(session.challenges[0], response.nonce)
        verified = self._verify(record, payload, response.signature)
        self._record_event("verify-ok" if verified else "verify-fail",
                           record.user_id)
        return VerificationOutcome(verified=verified, user_id=record.user_id)

    def handle_verification_response_batch(
        self, responses: Sequence[VerificationResponse],
    ) -> list[VerificationOutcome]:
        """Answer ``B`` verification responses with one batched verify.

        Per-response semantics are exactly
        :meth:`handle_verification_response`'s — each session is popped
        (one-shot, so a replay inside the batch dies like a replay
        across requests), dead or wrong-mode sessions fail closed, and
        every live response contributes one ``verify-ok``/``verify-fail``
        audit event — but the signature checks for the whole batch go
        through :meth:`VerifyTableCache.verify_batch
        <repro.crypto.signatures.VerifyTableCache.verify_batch>` in a
        single call, which the Schnorr back-end collapses into one
        randomized multi-scalar multiplication.  This is the entry point
        the service frontend's verify micro-batcher drives.

        Every response's fields are read *before* the first session pop:
        a malformed response object raises without consuming any
        session, so a caller that falls back to per-response handling
        never finds a batchmate's challenge already spent.  If the
        batched crypto call itself raises (a scheme whose ``verify``
        throws on garbage input), the sessions *are* already spent, so
        each item is retried individually right here — the raising item
        fails closed (audited ``verify-fail``), honest batchmates keep
        their true verdicts, and no challenge is double-consumed.
        """
        fields = [(response.session_id, response.nonce, response.signature)
                  for response in responses]
        outcomes: list[VerificationOutcome | None] = [None] * len(responses)
        items = []
        live: list[tuple[int, UserRecord]] = []
        for i, (session_id, nonce, signature) in enumerate(fields):
            session = self._sessions.pop(session_id)
            if session is None or session.mode != "verify":
                outcomes[i] = VerificationOutcome(verified=False, user_id="")
                continue
            record = session.records[0]
            payload = signed_payload(session.challenges[0], nonce)
            items.append((record.verify_key, payload, signature))
            live.append((i, record))
        if items:
            try:
                verdicts = self.key_tables.verify_batch(self.scheme, items)
            except Exception:  # noqa: BLE001 — isolate the culprit item
                verdicts = []
                for key, payload, signature in items:
                    try:
                        verdicts.append(self.key_tables.verify(
                            self.scheme, key, payload, signature))
                    except Exception:  # noqa: BLE001 — fail that item closed
                        verdicts.append(False)
            for (i, record), verified in zip(live, verdicts):
                self._record_event(
                    "verify-ok" if verified else "verify-fail",
                    record.user_id)
                outcomes[i] = VerificationOutcome(verified=verified,
                                                  user_id=record.user_id)
        return outcomes

    # -- normal approach (Fig. 2) ---------------------------------------------------------

    def handle_baseline_request(
        self, request: BaselineIdentificationRequest,
    ) -> BaselineChallengeBatch:
        """Ship every ``(ID_i, P_i, c_i)`` — the O(N) protocol's first leg."""
        records = tuple(self.store.all_records())
        self._record_event("baseline-batch", None,
                           f"shipping {len(records)} records")
        *challenges, session_id = self._new_tokens(count=len(records))
        challenges = tuple(challenges)
        self._sessions.put(session_id, PendingSession(
            mode="baseline", records=records, challenges=challenges
        ))
        return BaselineChallengeBatch(
            user_ids=BaselineChallengeBatch.pack_list(
                [r.user_id.encode("utf-8") for r in records]
            ),
            helper_blobs=BaselineChallengeBatch.pack_list(
                [r.helper_data for r in records]
            ),
            challenge=BaselineChallengeBatch.pack_list(list(challenges)),
            session_id=session_id,
        )

    def handle_baseline_response(
        self, response: BaselineResponseBatch,
    ) -> IdentificationOutcome:
        """Verify per-record signatures until one validates."""
        session = self._sessions.pop(response.session_id)
        if session is None or session.mode != "baseline":
            return IdentificationOutcome(identified=False, user_id=None)
        signatures = BaselineChallengeBatch.unpack_list(response.signatures)
        if len(signatures) != len(session.records):
            return IdentificationOutcome(identified=False, user_id=None)
        for record, challenge, signature in zip(
            session.records, session.challenges, signatures
        ):
            if not signature:
                continue
            payload = signed_payload(challenge, response.nonce)
            if self._verify(record, payload, signature):
                return IdentificationOutcome(
                    identified=True, user_id=record.user_id
                )
        return IdentificationOutcome(identified=False, user_id=None)

    # -- replication (journal streaming) ------------------------------------------

    def handle_replicate_subscribe(
        self, request: ReplicateSubscribe,
    ) -> ReplicateRecords:
        """Serve one batch of journal entries to a polling follower.

        Requires the store to carry an enrollment journal (journaling
        on); a journal-less endpoint — or an offset older than the journal's base, which
        this journal simply does not have — is a protocol error: the
        follower must bootstrap from a store copy instead.
        """
        from_seq, max_entries = request.values()
        journal = self.store.journal
        if journal is None:
            raise ProtocolError(
                "endpoint has no enrollment journal to replicate from")
        try:
            entries = journal.read(
                from_seq, max_entries or DEFAULT_REPLICATION_BATCH)
        except ParameterError as exc:
            raise ProtocolError(str(exc)) from exc
        payloads = [payload for _seq, payload in entries]
        # The wire contract is typed lifecycle entries.  A pre-lifecycle
        # record-format journal carries bare record encodings; tag each
        # as a plain enroll on the way out so followers replay one
        # format regardless of the primary's journal age.
        from repro.engine.lifecycle import ENTRY_FORMAT_TYPED, OP_ENROLL
        if journal.entry_format != ENTRY_FORMAT_TYPED:
            payloads = [bytes([OP_ENROLL]) + p for p in payloads]
        return ReplicateRecords.make(from_seq, journal.head_seq, payloads)

    # -- health -------------------------------------------------------------------

    def health_snapshot(self) -> dict:
        """Readiness facts this layer owns (merged into health replies):
        enrolled count, outstanding challenges, the store's lifecycle
        operation count (the journal head when journaled) and whether
        it is journaled."""
        return {
            "enrolled": len(self.store),
            "outstanding_sessions": self.outstanding_sessions(),
            "journal_seq": self.store.journal_seq(),
            "journaled": self.store.journal is not None,
        }
