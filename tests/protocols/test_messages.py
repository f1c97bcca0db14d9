"""Tests for protocol message encoding/decoding."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.protocols.messages import (
    BaselineChallengeBatch,
    BaselineIdentificationRequest,
    BaselineResponseBatch,
    EnrollmentAck,
    EnrollmentSubmission,
    IdentificationChallenge,
    IdentificationOutcome,
    IdentificationRequest,
    IdentificationResponse,
    Message,
    VerificationOutcome,
    VerificationRequest,
)

ROUNDTRIP_CASES = [
    EnrollmentSubmission(user_id="alice", verify_key=b"\x02" * 33,
                         helper_data=b"helper-bytes"),
    EnrollmentAck(user_id="alice", accepted=True),
    EnrollmentAck(user_id="bob", accepted=False),
    IdentificationRequest(sketch=np.array([1, -2, 200, -200], dtype=np.int64)),
    IdentificationChallenge(helper_data=b"P", challenge=b"c" * 16,
                            session_id=b"s" * 16),
    IdentificationResponse(session_id=b"s" * 16, signature=b"sig",
                           nonce=b"n" * 16),
    IdentificationOutcome(identified=True, user_id="carol"),
    IdentificationOutcome(identified=False, user_id=None),
    VerificationRequest(user_id="dave"),
    VerificationOutcome(verified=False, user_id="dave"),
    BaselineIdentificationRequest(request=b"identify"),
    BaselineResponseBatch(session_id=b"s" * 16,
                          signatures=BaselineChallengeBatch.pack_list(
                              [b"sig1", b"", b"sig3"]),
                          nonce=b"n" * 16),
]


@pytest.mark.parametrize("message", ROUNDTRIP_CASES,
                         ids=lambda m: type(m).__name__)
class TestRoundTrip:
    def test_roundtrip_via_base(self, message):
        decoded = Message.decode(message.encode())
        assert type(decoded) is type(message)
        for field_name in message.__dataclass_fields__:
            original = getattr(message, field_name)
            restored = getattr(decoded, field_name)
            if isinstance(original, np.ndarray):
                assert np.array_equal(original, restored)
            else:
                assert original == restored

    def test_roundtrip_via_subclass(self, message):
        assert type(message).decode(message.encode()) is not None


class TestDecodingErrors:
    def test_unknown_tag(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            Message.decode(b"\xff\xff" + b"x" * 10)

    def test_short_frame(self):
        with pytest.raises(ProtocolError, match="shorter"):
            Message.decode(b"\x00")

    def test_wrong_expected_type(self):
        encoded = EnrollmentAck(user_id="x", accepted=True).encode()
        with pytest.raises(ProtocolError, match="expected"):
            IdentificationRequest.decode(encoded)

    def test_truncated_chunk(self):
        encoded = VerificationRequest(user_id="frank").encode()
        with pytest.raises(ProtocolError):
            Message.decode(encoded[:-2])

    def test_missing_field_chunk(self):
        # Type tag of IdentificationChallenge (3 fields) with one chunk.
        frame = (4).to_bytes(2, "big") + (1).to_bytes(8, "big") + b"x"
        with pytest.raises(ProtocolError, match="chunks"):
            Message.decode(frame)


class TestPackedLists:
    def test_roundtrip(self):
        items = [b"", b"a", b"bb" * 100]
        packed = BaselineChallengeBatch.pack_list(items)
        assert BaselineChallengeBatch.unpack_list(packed) == items

    def test_empty_list(self):
        assert BaselineChallengeBatch.unpack_list(
            BaselineChallengeBatch.pack_list([])
        ) == []

    def test_truncated_rejected(self):
        packed = BaselineChallengeBatch.pack_list([b"abc"])
        with pytest.raises(ProtocolError):
            BaselineChallengeBatch.unpack_list(packed[:-1])


class TestSketchVector:
    def test_large_sketch_roundtrip(self):
        sketch = np.arange(-2500, 2500, dtype=np.int64)
        msg = IdentificationRequest(sketch=sketch)
        decoded = IdentificationRequest.decode(msg.encode())
        assert np.array_equal(decoded.sketch, sketch)

    def test_wire_size_is_linear_in_dimension(self):
        # Movements up to ka/2 = 200 travel at two bytes each.
        small = IdentificationRequest(sketch=np.full(10, 200, dtype=np.int64))
        large = IdentificationRequest(sketch=np.full(1000, -200,
                                                     dtype=np.int64))
        overhead = len(small.encode()) - 10 * 2
        assert len(large.encode()) == 1000 * 2 + overhead
