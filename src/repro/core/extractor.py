"""The succinct fuzzy extractor (paper Section IV-C).

Generic construction from the robust secure sketch plus a strong extractor:

* ``Gen(x)``: draw a seed ``r``; compute the robust sketch ``(s, h)``;
  output ``R = Ext(x; r)`` and helper data ``P = (s, h, r)``.
* ``Rep(y, P)``: recover ``x' = Rec(y, (s, h))``; output ``R = Ext(x'; r)``.

``R`` is the string the identification protocol turns into a signing key —
the paper's whole point is that ``R`` (and therefore the private key) is
*never stored*; only ``P`` is, and ``P`` leaks at most ``n log2(ka)`` bits
of the template (Theorem 3).

The helper data here also records the extractor seed ``r``.  The paper's
robust transform hashes ``(x, s)`` only; the optional ``bind_seed`` flag
additionally binds ``r`` into the tag, closing the (paper-acknowledged,
Boyen-et-al.-style) gap where an active adversary swaps the seed to make
the device derive a different key.  The default follows the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.numberline import IntArray
from repro.core.params import SystemParams
from repro.core.robust import RobustSketchValue
from repro.core.sketch import ChebyshevSketch
from repro.crypto.extractors import StrongExtractor, default_extractor
from repro.crypto.hashing import (
    compact_dtype,
    compact_row_widths,
    constant_time_equal,
    decode_compact_int_vector,
    encode_compact_int_vector,
    encode_int_vector,
    hash_concat,
)
from repro.crypto.prng import HmacDrbg
from repro.exceptions import ParameterError, TamperDetectedError

_TAG_LABEL = b"repro-fuzzy-extractor-v1"
#: First byte of each helper-data layout (see :meth:`HelperData.to_bytes`).
_COMPACT_LAYOUT = b"\x01"
_LEGACY_LAYOUT = b"\x00"


@dataclass(frozen=True)
class HelperData:
    """The public helper data ``P = (s, h, r)``.

    ``movements`` and ``tag`` form the robust sketch; ``seed`` is the
    strong-extractor seed ``r``.  Everything here is public by design —
    security rests on Theorem 3 (residual min-entropy) and Definition 6
    (extractor output close to uniform given ``P``).
    """

    movements: np.ndarray
    tag: bytes
    seed: bytes

    def sketch_value(self) -> RobustSketchValue:
        """The robust-sketch component ``(s, h)`` of this helper data."""
        return RobustSketchValue(movements=self.movements, tag=self.tag)

    def storage_bytes(self) -> int:
        """Wire size of the helper data: its encoded length."""
        return len(self.to_bytes())

    # -- serialisation (used by the protocol layer) -------------------------------

    def to_bytes(self) -> bytes:
        """Canonical wire and store encoding of ``P``.

        ``0x01``, then the tag and the seed, each behind a 2-byte
        big-endian length, then the movements behind a 4-byte length in
        the compact form of
        :func:`~repro.crypto.hashing.encode_compact_int_vector` (one width
        byte, then the smallest of 1, 2, 4 or 8 bytes per movement that
        holds them all: two at ``ka = 400``).
        :meth:`from_bytes` also reads the legacy layout, whose leading
        ``0x00`` is the high byte of an 8-byte length before int64
        movements; nothing writes it any more.
        """
        vector = encode_compact_int_vector(self.movements)
        return b"".join([
            _COMPACT_LAYOUT,
            len(self.tag).to_bytes(2, "big"), self.tag,
            len(self.seed).to_bytes(2, "big"), self.seed,
            len(vector).to_bytes(4, "big"), vector,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "HelperData":
        """Inverse of :meth:`to_bytes`; raises ``ParameterError`` on junk."""
        try:
            if data[:1] == _LEGACY_LAYOUT:
                return cls._from_legacy(data)
            if data[:1] != _COMPACT_LAYOUT:
                raise ValueError("unknown helper-data layout")
            tag, offset = _take(data, 1, 2)
            seed, offset = _take(data, offset, 2)
            vector, offset = _take(data, offset, 4)
            if offset != len(data):
                raise ValueError("truncated or oversized encoding")
            movements = decode_compact_int_vector(vector)
        except (IndexError, ValueError) as exc:
            raise ParameterError(f"malformed helper data: {exc}") from exc
        return cls(movements=movements, tag=tag, seed=seed)

    @classmethod
    def _from_legacy(cls, data: bytes) -> "HelperData":
        """Read the legacy layout: 8-byte length and int64 movements, then
        the 2-byte-length tag and seed."""
        body, offset = _take(data, 0, 8)
        tag, offset = _take(data, offset, 2)
        seed, offset = _take(data, offset, 2)
        if offset != len(data):
            raise ValueError("truncated or oversized encoding")
        if len(body) % 8:
            raise ValueError(
                f"byte length {len(body)} is not a multiple of 8")
        movements = np.frombuffer(body, dtype=">i8").astype(np.int64)
        return cls(movements=movements, tag=tag, seed=seed)


def _take(data: bytes, offset: int, prefix: int) -> tuple[bytes, int]:
    """The chunk behind a ``prefix``-byte big-endian length at ``offset``,
    and the offset after it; ``ValueError`` when ``data`` is too short."""
    if offset + prefix > len(data):
        raise ValueError("truncated length")
    length = int.from_bytes(data[offset: offset + prefix], "big")
    offset += prefix
    if offset + length > len(data):
        raise ValueError("truncated chunk")
    return data[offset: offset + length], offset + length


def decode_movement_rows(blobs: list[bytes], n: int) -> np.ndarray:
    """The movements of many helper blobs as one ``(len(blobs), n)`` int64
    matrix.

    Accepts and refuses exactly the blobs :meth:`HelperData.from_bytes`
    does (``ParameterError``), and also refuses any vector not of length
    ``n``.  A group of compact blobs that share one length and one header
    (layout byte, tag, seed and vector lengths, width) decodes with one ``join`` and
    one strided view, and its canonical widths are checked row-wise; any
    other group, and a lone blob, parses blob by blob.
    """
    if len(blobs) > 1 and blobs[0][:1] == _COMPACT_LAYOUT:
        rows = _uniform_compact_rows(blobs, n)
        if rows is not None:
            return rows
    rows = np.empty((len(blobs), n), dtype=np.int64)
    for i, blob in enumerate(blobs):
        movements = HelperData.from_bytes(blob).movements
        if movements.shape != (n,):
            raise ParameterError(
                f"sketch must have shape ({n},), got {movements.shape}")
        rows[i] = movements
    return rows


def _uniform_compact_rows(blobs: list[bytes], n: int) -> np.ndarray | None:
    """:func:`decode_movement_rows`' one-pass path, or ``None`` when the
    group is not uniform or holds a blob it must refuse (the blob-by-blob
    path then raises the error :meth:`HelperData.from_bytes` gives)."""
    first = blobs[0]
    size = len(first)
    if any(len(blob) != size for blob in blobs):
        return None
    try:
        HelperData.from_bytes(first)
    except ParameterError:
        return None
    seed_at = 3 + int.from_bytes(first[1:3], "big")
    vector_at = seed_at + 2 + int.from_bytes(first[seed_at: seed_at + 2],
                                             "big")
    width_at = vector_at + 4
    width = first[width_at]
    if size - width_at - 1 != n * width:
        return None
    joined = b"".join(blobs)
    table = np.frombuffer(joined, dtype=np.uint8).reshape(len(blobs), size)
    header = [0, 1, 2, seed_at, seed_at + 1, *range(vector_at, width_at + 1)]
    if not (table[:, header] == table[0, header]).all():
        return None
    rows = np.ndarray((len(blobs), n), dtype=compact_dtype(width),
                      buffer=joined, offset=width_at + 1,
                      strides=(size, width)).astype(np.int64)
    if not (compact_row_widths(rows) == width).all():
        return None
    return rows


class SuccinctFuzzyExtractor:
    """The paper's ``(Gen, Rep)`` pair.

    Parameters
    ----------
    params:
        Number-line geometry and threshold.
    extractor:
        A strong extractor; defaults to the paper's SHA-256 instantiation.
    bind_seed:
        When ``True``, the robustness tag also covers the extractor seed
        ``r`` (an extension over the paper; see module docstring).
    """

    def __init__(self, params: SystemParams,
                 extractor: StrongExtractor | None = None,
                 bind_seed: bool = False) -> None:
        self.params = params
        self.sketcher = ChebyshevSketch(params)
        self.extractor = extractor if extractor is not None else default_extractor()
        self.bind_seed = bind_seed

    # -- internals ------------------------------------------------------------------

    def _tag(self, x_canonical: IntArray, movements: IntArray, seed: bytes) -> bytes:
        parts = [encode_int_vector(x_canonical), encode_int_vector(movements)]
        if self.bind_seed:
            parts.append(seed)
        return hash_concat(parts, label=_TAG_LABEL)

    # -- Gen ---------------------------------------------------------------------------

    def generate(self, x: IntArray, drbg: HmacDrbg | None = None) -> tuple[bytes, HelperData]:
        """``Gen(x) -> (R, P)``.

        ``drbg`` drives both the extractor-seed draw and the sketch's
        boundary coins, making enrollment reproducible for tests; omitted,
        fresh OS-independent entropy is taken from numpy.
        """
        if drbg is None:
            drbg = HmacDrbg(np.random.default_rng().bytes(32),
                            personalization=b"fe-gen")
        x_canonical = self.sketcher.line.validate_vector(x)
        seed = drbg.generate(self.extractor.seed_bytes)
        movements = self.sketcher.sketch_canonical(x_canonical, drbg)
        tag = self._tag(x_canonical, movements, seed)
        secret = self.extractor.extract(encode_int_vector(x_canonical), seed)
        return secret, HelperData(movements=movements, tag=tag, seed=seed)

    # -- Rep ---------------------------------------------------------------------------

    def reproduce(self, y: IntArray, helper: HelperData) -> bytes:
        """``Rep(y, P) -> R``; raises ``RecoveryError`` / ``TamperDetectedError``.

        Helper data whose movements are no valid sketch (wrong length, or
        a movement beyond ``ka/2``) is tampered helper data, so it fails
        closed as ``TamperDetectedError`` rather than as a parameter error.
        """
        try:
            movements = self.sketcher.validate_sketch(helper.movements)
        except ParameterError as exc:
            raise TamperDetectedError(
                f"helper data holds no valid sketch: {exc}") from exc
        recovered = self.sketcher.recover(y, movements)
        expected = self._tag(recovered, movements, helper.seed)
        if not constant_time_equal(expected, helper.tag):
            raise TamperDetectedError(
                "helper-data tag mismatch during Rep: sketch, tag or seed "
                "was modified"
            )
        return self.extractor.extract(encode_int_vector(recovered), helper.seed)
