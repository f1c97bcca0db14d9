"""Tests for hashing utilities and canonical encodings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import hashing


def _int64_words(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=">i8").astype(np.int64)


class TestEncodeIntVector:
    def test_roundtrip(self):
        vec = np.array([0, 1, -1, 100_000, -100_000], dtype=np.int64)
        assert np.array_equal(_int64_words(hashing.encode_int_vector(vec)),
                              vec)

    @given(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=0, max_size=50))
    def test_roundtrip_property(self, values):
        vec = np.array(values, dtype=np.int64)
        assert np.array_equal(_int64_words(hashing.encode_int_vector(vec)),
                              vec)

    def test_fixed_width(self):
        assert len(hashing.encode_int_vector(np.arange(7))) == 7 * 8

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            hashing.encode_int_vector(np.zeros((2, 2), dtype=np.int64))

    def test_decode_rejects_ragged_length(self):
        with pytest.raises(ValueError, match="multiple"):
            hashing.decode_compact_int_vector(b"\x02" + b"\x00" * 9)

    def test_injective_across_boundaries(self):
        """[1, 256] and [256, 1] must encode differently (no ambiguity)."""
        a = hashing.encode_int_vector(np.array([1, 256]))
        b = hashing.encode_int_vector(np.array([256, 1]))
        assert a != b


class TestCompactIntVector:
    """The wire and store form: one width byte, then the smallest of 1, 2,
    4 or 8 bytes per coordinate that holds every value."""

    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=40))
    def test_roundtrip_property(self, values):
        vec = np.array(values, dtype=np.int64)
        encoded = hashing.encode_compact_int_vector(vec)
        decoded = hashing.decode_compact_int_vector(encoded)
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, vec)
        assert hashing.decode_compact_int_vector(memoryview(encoded)) \
            .tolist() == values

    @pytest.mark.parametrize("values,width", [
        ([], 1), ([0], 1), ([127, -128], 1), ([128], 2), ([-129], 2),
        ([32767, -32768], 2), ([32768], 4), ([-32769], 4),
        ([2 ** 31 - 1, -2 ** 31], 4), ([2 ** 31], 8), ([-2 ** 63], 8),
        ([2 ** 63 - 1], 8),
    ])
    def test_smallest_width(self, values, width):
        encoded = hashing.encode_compact_int_vector(
            np.array(values, dtype=np.int64))
        assert encoded[0] == width
        assert len(encoded) == 1 + width * len(values)

    def test_two_bytes_per_movement_at_bench_ka(self):
        """|m| <= ka/2 = 200: 1 + 2n bytes where the int64 form is 8n."""
        vec = np.arange(-200, 201, 4, dtype=np.int64)
        assert len(hashing.encode_compact_int_vector(vec)) == 1 + 2 * vec.size

    def test_hash_input_unchanged(self):
        """Tags hash the int64 form, never the compact one."""
        vec = np.array([5, -7, 200])
        assert hashing.hash_vectors(vec) == hashing.hash_concat(
            [hashing.encode_int_vector(vec)])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            hashing.encode_compact_int_vector(np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("data,match", [
        (b"", "empty"),
        (b"\x00", "width 0"),
        (b"\x00\x05", "width 0"),
        (b"\x03" + b"\x00" * 3, "width 3"),
        (b"\x09" + b"\x00" * 9, "width 9"),
        (b"\x02\x00\x01\x00", "multiple"),
        (b"\x04" + b"\x00" * 6, "multiple"),
        (b"\x02" + b"\x00\x05\xff\x80", "non-canonical"),
        (b"\x02", "non-canonical"),
        (b"\x08" + (300).to_bytes(8, "big") + (-5).to_bytes(8, "big",
                                                          signed=True),
         "non-canonical"),
        (b"\x08" + (2 ** 31 - 1).to_bytes(8, "big"), "non-canonical"),
        (b"\x04" + (32767).to_bytes(4, "big"), "non-canonical"),
    ])
    def test_rejects_non_canonical(self, data, match):
        with pytest.raises(ValueError, match=match):
            hashing.decode_compact_int_vector(data)

    @given(st.lists(st.integers(-300, 300), min_size=1, max_size=20),
           st.integers(0, 10 ** 6))
    def test_injective_under_single_byte_change(self, values, pick):
        """A changed byte never decodes to the same vector."""
        encoded = bytearray(hashing.encode_compact_int_vector(
            np.array(values, dtype=np.int64)))
        position = pick % len(encoded)
        encoded[position] ^= 1 + pick % 255
        try:
            decoded = hashing.decode_compact_int_vector(bytes(encoded))
        except ValueError:
            return
        assert decoded.tolist() != values

    def test_row_widths_match_single_vector_widths(self):
        rng = np.random.default_rng(3)
        rows = np.concatenate([
            rng.integers(-100, 100, size=(4, 6)),
            rng.integers(-30_000, 30_000, size=(4, 6)),
            rng.integers(-2 ** 40, 2 ** 40, size=(4, 6)),
        ]).astype(np.int64)
        rows[5] = [0, 1, 2, 3, 4, -128]  # int8-range row among int16 ones
        assert hashing.compact_row_widths(rows).tolist() == [
            hashing.compact_width(row) for row in rows]
        assert hashing.compact_row_widths(
            np.zeros((3, 0), dtype=np.int64)).tolist() == [1, 1, 1]


class TestHashVectors:
    def test_deterministic(self):
        v = np.array([1, 2, 3])
        assert hashing.hash_vectors(v) == hashing.hash_vectors(v)

    def test_label_separates_domains(self):
        v = np.array([1, 2, 3])
        assert hashing.hash_vectors(v, label=b"a") != \
            hashing.hash_vectors(v, label=b"b")

    def test_boundary_shift_changes_hash(self):
        """(x=[1,2], s=[3]) vs (x=[1], s=[2,3]) must differ (framing)."""
        h1 = hashing.hash_vectors(np.array([1, 2]), np.array([3]))
        h2 = hashing.hash_vectors(np.array([1]), np.array([2, 3]))
        assert h1 != h2

    def test_order_matters(self):
        a, b = np.array([1]), np.array([2])
        assert hashing.hash_vectors(a, b) != hashing.hash_vectors(b, a)

    def test_digest_size(self):
        assert len(hashing.hash_vectors(np.array([1]))) == 32


class TestExpand:
    def test_length_exact(self):
        for length in (0, 1, 31, 32, 33, 100):
            assert len(hashing.expand(b"seed", length)) == length

    def test_prefix_consistency(self):
        long = hashing.expand(b"seed", 100)
        short = hashing.expand(b"seed", 50)
        assert long[:50] == short

    def test_seed_sensitivity(self):
        assert hashing.expand(b"a", 32) != hashing.expand(b"b", 32)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            hashing.expand(b"s", -1)


class TestHashToInt:
    @given(st.binary(min_size=0, max_size=64), st.integers(1, 512))
    def test_range(self, data, bits):
        value = hashing.hash_to_int(data, bits)
        assert 0 <= value < 2 ** bits

    def test_deterministic(self):
        assert hashing.hash_to_int(b"x", 100) == hashing.hash_to_int(b"x", 100)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            hashing.hash_to_int(b"x", 0)


class TestConstantTimeEqual:
    def test_equal(self):
        assert hashing.constant_time_equal(b"abc", b"abc")

    def test_unequal(self):
        assert not hashing.constant_time_equal(b"abc", b"abd")

    def test_length_mismatch(self):
        assert not hashing.constant_time_equal(b"abc", b"abcd")


class TestHashConcat:
    def test_framing_injective(self):
        assert hashing.hash_concat([b"ab", b"c"]) != hashing.hash_concat([b"a", b"bc"])

    def test_empty_parts_differ_from_no_parts(self):
        assert hashing.hash_concat([b""]) != hashing.hash_concat([])
