"""Wire-tamper fuzzing over every registered message type.

The decode contract (module docstring of :mod:`repro.protocols.messages`)
says malformed wire data raises :class:`ProtocolError` — nothing else.
A network server's read loop leans on exactly that: any byte flip,
truncation, or hostile chunk length an active adversary produces must
surface as the one exception type the loop catches, never as
``UnicodeDecodeError`` / ``ValueError`` / ``IndexError`` escaping from a
field decoder.  These tests fuzz the real encodings of *every* type in
the registry, so a newly registered message is covered automatically.
"""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.protocols.messages import (
    BaselineChallengeBatch,
    BaselineIdentificationRequest,
    BaselineResponseBatch,
    DeadlineEnvelope,
    EnrollmentAck,
    EnrollmentSubmission,
    ErrorReply,
    HealthReply,
    HealthRequest,
    IdentificationChallenge,
    IdentificationDecline,
    IdentificationOutcome,
    IdentificationRequest,
    IdentificationResponse,
    Message,
    ReplicateRecords,
    ReplicateSubscribe,
    RevokeAck,
    RevokeRequest,
    RotateAck,
    RotateRequest,
    StatsReply,
    StatsRequest,
    TracedEnvelope,
    VerificationChallenge,
    VerificationOutcome,
    VerificationRequest,
    VerificationResponse,
    _pack_chunks,
    registered_message_types,
)

#: One representative instance per registered type.  The completeness
#: test below fails if a new message type lands without a sample here.
SAMPLES = {
    EnrollmentSubmission: EnrollmentSubmission(
        user_id="alice", verify_key=b"\x02" * 33, helper_data=b"helper"),
    EnrollmentAck: EnrollmentAck(user_id="alice", accepted=True),
    IdentificationRequest: IdentificationRequest(
        sketch=np.array([5, -7, 200, -200, 0], dtype=np.int64)),
    IdentificationChallenge: IdentificationChallenge(
        helper_data=b"P" * 40, challenge=b"c" * 16, session_id=b"s" * 16),
    IdentificationResponse: IdentificationResponse(
        session_id=b"s" * 16, signature=b"sig" * 10, nonce=b"n" * 16),
    IdentificationOutcome: IdentificationOutcome(
        identified=True, user_id="carol"),
    IdentificationDecline: IdentificationDecline(session_id=b"s" * 16),
    VerificationRequest: VerificationRequest(user_id="dave"),
    VerificationChallenge: VerificationChallenge(
        helper_data=b"P" * 40, challenge=b"c" * 16, session_id=b"s" * 16),
    VerificationResponse: VerificationResponse(
        session_id=b"s" * 16, signature=b"sig" * 10, nonce=b"n" * 16),
    VerificationOutcome: VerificationOutcome(verified=False, user_id="dave"),
    BaselineIdentificationRequest: BaselineIdentificationRequest(
        request=b"identify"),
    BaselineChallengeBatch: BaselineChallengeBatch(
        user_ids=BaselineChallengeBatch.pack_list([b"u1", b"u2"]),
        helper_blobs=BaselineChallengeBatch.pack_list([b"P1", b"P2"]),
        challenge=BaselineChallengeBatch.pack_list([b"c" * 16] * 2),
        session_id=b"s" * 16),
    BaselineResponseBatch: BaselineResponseBatch(
        session_id=b"s" * 16,
        signatures=BaselineChallengeBatch.pack_list([b"sig1", b""]),
        nonce=b"n" * 16),
    ErrorReply: ErrorReply.make(code="overload", detail="queue full",
                                retry_after_ms=120),
    TracedEnvelope: TracedEnvelope(
        trace_id=b"t" * 16,
        body=VerificationRequest(user_id="dave").encode()),
    DeadlineEnvelope: DeadlineEnvelope.wrap(
        VerificationRequest(user_id="dave"), budget_ms=750),
    StatsRequest: StatsRequest.make("all", limit=25),
    StatsReply: StatsReply(payload='{"metrics": [], "traces": []}'),
    ReplicateSubscribe: ReplicateSubscribe.make(from_seq=7, max_entries=64),
    ReplicateRecords: ReplicateRecords.make(
        from_seq=7, head_seq=9, payloads=[b"rec-7", b"rec-8"]),
    HealthRequest: HealthRequest(probe=b"health"),
    HealthReply: HealthReply(payload='{"alive": true, "ready": true}'),
    RotateRequest: RotateRequest(
        user_id="alice", verify_key=b"\x03" * 33, helper_data=b"helper-v2",
        supersede=True),
    RotateAck: RotateAck.make(user_id="alice", accepted=True, version=2),
    RevokeRequest: RevokeRequest.make(user_id="alice", version=None),
    RevokeAck: RevokeAck.make(user_id="alice", revoked=3),
}

ALL_TYPES = sorted(registered_message_types().values(),
                   key=lambda cls: cls.TYPE_TAG)

#: Exceptions that must never escape the decoder.
FORBIDDEN = (UnicodeDecodeError, IndexError, KeyError, TypeError,
             OverflowError, np.exceptions.AxisError)


def _decode_must_not_leak(data: bytes) -> None:
    """Decode may succeed or raise ProtocolError; anything else fails."""
    try:
        Message.decode(data)
    except ProtocolError:
        pass  # the contract: malformed wire data -> ProtocolError
    # A ValueError that is not a ProtocolError is exactly the leak the
    # hardening closed (decode_int_vector, int.from_bytes, ...).
    except FORBIDDEN as exc:  # pragma: no cover - failure path
        pytest.fail(f"decoder leaked {type(exc).__name__}: {exc}")
    except ValueError as exc:  # pragma: no cover - failure path
        pytest.fail(f"decoder leaked bare ValueError: {exc}")


def test_every_registered_type_has_a_sample():
    missing = [cls.__name__ for cls in ALL_TYPES if cls not in SAMPLES]
    assert not missing, f"add fuzz samples for: {missing}"


@pytest.mark.parametrize("cls", ALL_TYPES, ids=lambda c: c.__name__)
class TestRoundTripParity:
    def test_encode_decode_identity(self, cls):
        message = SAMPLES[cls]
        decoded = Message.decode(message.encode())
        assert type(decoded) is cls
        for name in message.__dataclass_fields__:
            original, restored = (getattr(message, name),
                                  getattr(decoded, name))
            if isinstance(original, np.ndarray):
                assert np.array_equal(original, restored)
            else:
                assert original == restored

    def test_encode_buffers_concatenate_to_encode(self, cls):
        # The gathered-write path must produce byte-identical frames.
        message = SAMPLES[cls]
        assert b"".join(message.encode_buffers()) == message.encode()

    def test_subclass_decode_enforces_tag(self, cls):
        other = next(t for t in ALL_TYPES if t is not cls)
        with pytest.raises(ProtocolError, match="expected"):
            cls.decode(SAMPLES[other].encode())


@pytest.mark.parametrize("cls", ALL_TYPES, ids=lambda c: c.__name__)
class TestTamperFuzz:
    def test_single_byte_flips(self, cls):
        wire = bytearray(SAMPLES[cls].encode())
        rng = np.random.default_rng(cls.TYPE_TAG)
        positions = range(len(wire)) if len(wire) <= 256 else \
            rng.integers(0, len(wire), size=256)
        for pos in positions:
            flipped = bytearray(wire)
            flipped[pos] ^= int(rng.integers(1, 256))
            _decode_must_not_leak(bytes(flipped))

    def test_truncations(self, cls):
        wire = SAMPLES[cls].encode()
        cuts = range(len(wire)) if len(wire) <= 128 else \
            np.random.default_rng(cls.TYPE_TAG).integers(
                0, len(wire), size=128)
        for cut in cuts:
            _decode_must_not_leak(wire[:cut])

    def test_random_garbage_with_valid_tag(self, cls):
        rng = np.random.default_rng(1000 + cls.TYPE_TAG)
        tag = cls.TYPE_TAG.to_bytes(2, "big")
        for size in (0, 1, 7, 8, 9, 64, 257):
            for _ in range(8):
                _decode_must_not_leak(tag + rng.bytes(size))

    def test_oversized_chunk_length(self, cls):
        # A chunk header claiming far more bytes than the frame carries.
        tag = cls.TYPE_TAG.to_bytes(2, "big")
        _decode_must_not_leak(tag + (2**62).to_bytes(8, "big") + b"xx")
        _decode_must_not_leak(tag + (2**63 + 17).to_bytes(8, "big"))


class TestStrictBool:
    """The bool satellite: only ``b\"\\x00\"`` / ``b\"\\x01\"`` decode."""

    def _ack_frame(self, accepted_chunk: bytes) -> bytes:
        return EnrollmentAck.TYPE_TAG.to_bytes(2, "big") + _pack_chunks(
            [b"alice", accepted_chunk])

    def test_canonical_values_round_trip(self):
        assert Message.decode(self._ack_frame(b"\x01")).accepted is True
        assert Message.decode(self._ack_frame(b"\x00")).accepted is False

    @pytest.mark.parametrize("chunk", [b"\x02", b"\xff", b"", b"\x01\x00",
                                       b"\x00\x00", b"true"])
    def test_tampered_bool_rejected(self, chunk):
        with pytest.raises(ProtocolError, match="bool"):
            Message.decode(self._ack_frame(chunk))

    def test_tampered_bool_rejected_via_subclass(self):
        with pytest.raises(ProtocolError, match="bool"):
            EnrollmentAck.decode(self._ack_frame(b"\x02"))


class TestFieldErrorWrapping:
    """The leak satellites: UTF-8 and int-vector failures wrap cleanly."""

    def test_invalid_utf8_str_field(self):
        frame = VerificationRequest.TYPE_TAG.to_bytes(2, "big") + \
            _pack_chunks([b"\xff\xfe\x80"])
        with pytest.raises(ProtocolError, match="malformed field"):
            Message.decode(frame)

    def test_invalid_utf8_optional_str_field(self):
        frame = IdentificationOutcome.TYPE_TAG.to_bytes(2, "big") + \
            _pack_chunks([b"\x01", b"\x80\x80"])
        with pytest.raises(ProtocolError, match="malformed field"):
            Message.decode(frame)

    def test_ragged_int_vector_chunk(self):
        # A 13-byte body is not a multiple of the declared 2-byte width.
        frame = IdentificationRequest.TYPE_TAG.to_bytes(2, "big") + \
            _pack_chunks([b"\x02" + b"\x00" * 13])
        with pytest.raises(ProtocolError, match="malformed field"):
            Message.decode(frame)

    def test_protocol_error_not_double_wrapped(self):
        frame = EnrollmentAck.TYPE_TAG.to_bytes(2, "big") + \
            _pack_chunks([b"x", b"\x07"])
        with pytest.raises(ProtocolError) as excinfo:
            Message.decode(frame)
        assert "malformed field" not in str(excinfo.value)


def _sketch_frame(chunk: bytes) -> bytes:
    return IdentificationRequest.TYPE_TAG.to_bytes(2, "big") + \
        _pack_chunks([chunk])


class TestCompactSketchField:
    """The probe sketch travels in the compact int-vector form; no
    tampered frame may decode to the vector that was sent."""

    def test_every_single_byte_mutation(self):
        """At the bench parameters (n=128, |m| <= ka/2 = 200): each
        mutated byte either fails as ProtocolError or decodes to a
        message that is not the original sketch."""
        rng = np.random.default_rng(128)
        sketch = rng.integers(-200, 201, size=128, dtype=np.int64)
        wire = IdentificationRequest(sketch=sketch).encode()
        assert len(wire) == 2 + 8 + 1 + 2 * 128
        for pos in range(len(wire)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(wire)
                mutated[pos] ^= flip
                try:
                    decoded = Message.decode(bytes(mutated))
                except ProtocolError:
                    continue
                assert not (isinstance(decoded, IdentificationRequest)
                            and np.array_equal(decoded.sketch, sketch)), \
                    f"mutation at byte {pos} decoded to the sent sketch"

    @pytest.mark.parametrize("chunk", [
        b"\x00" + b"\x00" * 8,                 # width 0
        b"\x03" + b"\x00" * 9,                 # width 3
        b"\x09" + b"\x00" * 9,                 # width 9
        b"\x04" + b"\x00" * 7,                 # ragged body
        b"\x02" + b"\x00\x05\xff\x80\x00\x7f",   # int8 values at width 2
        b"\x08" + (300).to_bytes(8, "big")
        + (-300).to_bytes(8, "big", signed=True),  # int16 values at width 8
        b"",                                    # no width byte
    ], ids=["w0", "w3", "w9", "ragged", "w2-int8", "w8-int16", "empty"])
    def test_non_canonical_chunk_refused(self, chunk):
        with pytest.raises(ProtocolError, match="malformed field"):
            Message.decode(_sketch_frame(chunk))

    def test_sketch_chunk_is_two_bytes_per_coordinate(self):
        sketch = np.array([200, -200, 129, 0], dtype=np.int64)
        wire = IdentificationRequest(sketch=sketch).encode()
        assert wire == _sketch_frame(
            b"\x02" + sketch.astype(">i2").tobytes())
