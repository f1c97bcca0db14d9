"""Hashing utilities shared across the library.

The paper instantiates two hash-based primitives:

* a collision-resistant hash ``H : {0,1}* -> {0,1}^l`` used by the robust
  secure sketch (Section IV-C, following Boyen et al. [10]);
* SHA-256 as the "random extractor" in Table II.

Everything here is a thin, well-typed wrapper over :mod:`hashlib` /
:mod:`hmac` from the standard library.  Canonical byte encodings for integer
vectors live here too, in two forms:

* :func:`encode_int_vector` — fixed 8-byte words, the only form that is
  ever hashed, so a sketch hashed on the device equals the sketch hashed
  on the server byte-for-byte;
* :func:`encode_compact_int_vector` — one width byte then the smallest
  fixed width that holds every coordinate, the form sent on the wire and
  stored.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable, Sequence

import numpy as np

#: Big-endian coordinate dtype of each width the compact encoding may use.
_COMPACT_DTYPES = {width: np.dtype(f">i{width}") for width in (1, 2, 4, 8)}
_WIDTH_PREFIX = {width: bytes([width]) for width in _COMPACT_DTYPES}
#: ``(width, lo, hi)`` of every width narrower than 8 bytes, narrowest first.
_NARROW_RANGES = tuple(
    (width, -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1)
    for width in (1, 2, 4))
_MIN = np.minimum.reduce
_MAX = np.maximum.reduce

DIGEST_SIZE = hashlib.sha256().digest_size


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Return ``HMAC-SHA256(key, data)``."""
    return hmac.new(key, data, hashlib.sha256).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking the mismatch position.

    Used wherever a hash tag is checked (robust sketch verification), so an
    attacker probing tampered helper data cannot learn a prefix of the
    correct tag from timing.
    """
    return hmac.compare_digest(a, b)


def encode_int_vector(vector: Sequence[int] | np.ndarray) -> bytes:
    """Serialise a vector of signed integers to a canonical byte string.

    Each coordinate becomes an 8-byte big-endian two's-complement word.
    Using a fixed-width encoding (rather than e.g. ``str(list)``) makes the
    encoding injective and platform-independent, which the robust sketch's
    hash binding relies on.
    """
    arr = np.asarray(vector, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    # Big-endian view of the int64 array is the canonical encoding.
    return arr.astype(">i8").tobytes()


def compact_width(vector: np.ndarray) -> int:
    """Smallest width in ``{1, 2, 4, 8}`` bytes that holds every coordinate
    of the int64 ``vector`` (1 for an empty one)."""
    if not vector.size:
        return 1
    lo, hi = int(_MIN(vector)), int(_MAX(vector))
    for width, width_lo, width_hi in _NARROW_RANGES:
        if width_lo <= lo and hi <= width_hi:
            return width
    return 8


def compact_row_widths(matrix: np.ndarray) -> np.ndarray:
    """:func:`compact_width` of every row of an int64 ``(B, n)`` matrix."""
    widths = np.full(matrix.shape[0], 8 if matrix.shape[1] else 1,
                     dtype=np.int64)
    if matrix.shape[1]:
        lo, hi = matrix.min(axis=1), matrix.max(axis=1)
        for width, width_lo, width_hi in reversed(_NARROW_RANGES):
            widths[(width_lo <= lo) & (hi <= width_hi)] = width
    return widths


def encode_compact_int_vector(vector: Sequence[int] | np.ndarray) -> bytes:
    """Serialise a signed integer vector in its canonical compact form.

    One width byte ``w`` in ``{1, 2, 4, 8}``, then ``len * w`` bytes of
    big-endian two's complement.  ``w`` is the smallest width that holds
    every coordinate, so each vector has exactly one encoding.  This is a
    transport and storage form only: hashes and tags are computed over
    :func:`encode_int_vector`, which it does not replace.
    """
    arr = np.asarray(vector, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    width = compact_width(arr)
    return _WIDTH_PREFIX[width] + arr.astype(_COMPACT_DTYPES[width]).tobytes()


def compact_dtype(width: int) -> np.dtype:
    """The big-endian coordinate dtype of a compact width byte; raises
    ``ValueError`` for a width the encoding never writes."""
    dtype = _COMPACT_DTYPES.get(width)
    if dtype is None:
        raise ValueError(f"unknown coordinate width {width}")
    return dtype


def decode_compact_int_vector(data: bytes | memoryview) -> np.ndarray:
    """Inverse of :func:`encode_compact_int_vector`, as int64.

    Refuses (``ValueError``) an empty input, an unknown width, a body that
    is not a multiple of the width, and a width wider than the values
    need — so only canonical encodings decode.
    """
    if not len(data):
        raise ValueError("empty compact vector")
    width = data[0]
    dtype = compact_dtype(width)
    if (len(data) - 1) % width:
        raise ValueError(f"body of {len(data) - 1} bytes is not a multiple "
                         f"of the coordinate width {width}")
    arr = np.frombuffer(data, dtype=dtype, offset=1).astype(np.int64)
    if compact_width(arr) != width:
        raise ValueError(f"coordinate width {width} is wider than the "
                         f"values need (non-canonical)")
    return arr


def hash_vectors(*vectors: Sequence[int] | np.ndarray, label: bytes = b"") -> bytes:
    """Hash one or more integer vectors into a single SHA-256 tag.

    A length prefix is inserted before every vector so the combined encoding
    is injective (``H(x || s)`` with ambiguous boundaries would let an
    attacker shift mass between ``x`` and ``s``).  The optional ``label``
    provides domain separation between different uses of the hash.
    """
    h = hashlib.sha256()
    h.update(len(label).to_bytes(4, "big"))
    h.update(label)
    for vec in vectors:
        encoded = encode_int_vector(vec)
        h.update(len(encoded).to_bytes(8, "big"))
        h.update(encoded)
    return h.digest()


def hash_to_int(data: bytes, bits: int) -> int:
    """Map ``data`` to an integer in ``[0, 2**bits)`` by iterated hashing.

    SHA-256 output blocks are concatenated (counter mode) until ``bits``
    bits are available; the result is truncated to exactly ``bits`` bits.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    out = expand(data, (bits + 7) // 8)
    value = int.from_bytes(out, "big")
    excess = len(out) * 8 - bits
    return value >> excess


def expand(seed: bytes, length: int) -> bytes:
    """Expand ``seed`` to ``length`` bytes with SHA-256 in counter mode.

    This is the classic ``H(seed || 0) || H(seed || 1) || ...`` expansion;
    it is used to derive long uniform strings (e.g. signing keys) from the
    fuzzy extractor's fixed-size output ``R``.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    blocks = []
    counter = 0
    produced = 0
    while produced < length:
        block = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        blocks.append(block)
        produced += len(block)
        counter += 1
    return b"".join(blocks)[:length]


def hash_concat(parts: Iterable[bytes], label: bytes = b"") -> bytes:
    """Hash a sequence of byte strings with injective length framing."""
    h = hashlib.sha256()
    h.update(len(label).to_bytes(4, "big"))
    h.update(label)
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()
