"""Robust secure sketch — the Boyen et al. generic transform (Section IV-C).

A plain secure sketch gives no guarantee when an active adversary modifies
the public helper data.  The robust transform appends a hash binding the
input to the sketch:

* ``SS(x) -> (s', h)`` with ``h = H(x, s')``;
* ``Rec(y, (s', h))`` recovers ``x' = Rec'(y, s')`` and accepts only when
  ``H(x', s') == h``.

The hash is modelled as a random oracle in Boyen et al.'s proof; here it is
SHA-256 with injective framing and domain separation
(:func:`repro.crypto.hashing.hash_vectors`).

Tampering is surfaced as :class:`~repro.exceptions.TamperDetectedError`, a
subclass of the ordinary noise-rejection :class:`RecoveryError`, so callers
can distinguish an active attack from an over-noisy reading when they care
and treat both as ``⊥`` when they do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.numberline import IntArray
from repro.core.params import SystemParams
from repro.core.sketch import ChebyshevSketch
from repro.crypto.hashing import (
    constant_time_equal,
    encode_compact_int_vector,
    hash_vectors,
)
from repro.crypto.prng import HmacDrbg
from repro.exceptions import ParameterError, TamperDetectedError

_HASH_LABEL = b"repro-robust-sketch-v1"


@dataclass(frozen=True)
class RobustSketchValue:
    """The published pair ``(s, h)``: movement vector plus binding tag."""

    movements: np.ndarray
    tag: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.tag, bytes) or len(self.tag) != 32:
            raise ParameterError("tag must be a 32-byte SHA-256 digest")

    def storage_bytes(self) -> int:
        """Wire size: the compact movement encoding plus the tag."""
        return len(encode_compact_int_vector(self.movements)) + len(self.tag)


class RobustChebyshevSketch:
    """Hash-bound wrapper around :class:`ChebyshevSketch`."""

    def __init__(self, params: SystemParams) -> None:
        self.params = params
        self.inner = ChebyshevSketch(params)

    def sketch(self, x: IntArray, drbg: HmacDrbg | None = None) -> RobustSketchValue:
        """``SS(x) -> (s, h)`` with ``h = H(x, s)``."""
        x_canonical = self.inner.line.validate_vector(x)
        movements = self.inner.sketch(x_canonical, drbg)
        tag = hash_vectors(x_canonical, movements, label=_HASH_LABEL)
        return RobustSketchValue(movements=movements, tag=tag)

    def recover(self, y: IntArray, value: RobustSketchValue) -> IntArray:
        """``Rec(y, (s, h))``; raises on noise (``RecoveryError``) or
        tampering (``TamperDetectedError``)."""
        recovered = self.inner.recover(y, value.movements)
        expected = hash_vectors(recovered, value.movements, label=_HASH_LABEL)
        if not constant_time_equal(expected, value.tag):
            raise TamperDetectedError(
                "helper-data tag mismatch: sketch or tag was modified"
            )
        return recovered
