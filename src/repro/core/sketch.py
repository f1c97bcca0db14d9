"""The Chebyshev-distance secure sketch (paper Section IV-B).

``SS(x)`` moves every coordinate to the identifier of its interval and
publishes the movements ``s = (s_1, ..., s_n)``; ``Rec(y, s)`` adds the
movements to the fresh reading, snaps to the nearest identifier, and
subtracts the movements again.  Theorem 1: recovery returns exactly ``x``
iff the Chebyshev distance between ``x`` and ``y`` is at most ``t``.

Special cases from the paper, both handled through ring arithmetic:

* *Special case 1* — a coordinate on an interval boundary belongs to no
  interval; a fair coin decides whether it moves to the left or right
  identifier (movement ``∓ka/2``).
* *Special case 2* — the extreme points of the line wrap around: the line
  is a ring.  Canonical ring reduction (see :mod:`repro.core.numberline`)
  makes this automatic, including the paper's erratum where ``Rec``
  subtracts ``ka`` instead of the full circumference ``kav``.

The coin flips are drawn from an :class:`~repro.crypto.prng.HmacDrbg` so
enrollment is reproducible from a seed; with the paper's parameters a
boundary coordinate occurs with probability ``1/ka = 1/400`` per
coordinate, so the coin path is rare but visible in property tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.numberline import IntArray, NumberLine
from repro.core.params import SystemParams
from repro.crypto.prng import HmacDrbg
from repro.exceptions import ParameterError, RecoveryError


class ChebyshevSketch:
    """The ``(SS, Rec)`` pair over a number line ``La``.

    Parameters
    ----------
    params:
        The system parameters (geometry + threshold).  The dimension check
        is taken from ``params.n`` unless a different-length vector is
        explicitly allowed via ``dimension``.
    """

    def __init__(self, params: SystemParams) -> None:
        self.params = params
        self.line = NumberLine(params)

    # -- SS ----------------------------------------------------------------------

    def sketch(self, x: IntArray, drbg: HmacDrbg | None = None) -> IntArray:
        """``SS(x) -> s``: per-coordinate movements to interval identifiers.

        ``drbg`` supplies the boundary coin flips; omitted, a fresh DRBG is
        seeded from numpy's non-deterministic entropy, so two sketches of
        the same template may differ on boundary coordinates (which is
        exactly the paper's behaviour — the coin is fair and fresh).
        """
        return self.sketch_canonical(self.line.validate_vector(x), drbg)

    def sketch_canonical(self, x: IntArray,
                         drbg: HmacDrbg | None = None) -> IntArray:
        """``SS`` for an already-canonicalised template vector.

        The pre-validated entry point for callers that have just run
        :meth:`NumberLine.validate_vector` themselves —
        :meth:`SuccinctFuzzyExtractor.generate` canonicalises once and
        shares the result between the sketch and the robustness tag, so
        the Gen hot path validates each template exactly once.  ``x``
        must be a canonical ring-representative int64 vector of dimension
        ``params.n``; anything else is undefined behaviour (use
        :meth:`sketch`).
        """
        if drbg is None:
            drbg = HmacDrbg(np.random.default_rng().bytes(32),
                            personalization=b"sketch-coins")

        identifiers = np.empty_like(x)
        boundary = self.line.is_boundary(x)
        interior = ~boundary
        identifiers[interior] = self.line.identifier_of(x[interior])

        boundary_idx = np.nonzero(boundary)[0]
        if boundary_idx.size:
            coin_bytes = np.frombuffer(
                drbg.generate(boundary_idx.size), dtype=np.uint8
            )
            coins = (coin_bytes & 1).astype(np.int64)
            # coin = 0 -> left identifier (x - ka/2); coin = 1 -> right.
            offsets = np.where(coins == 0,
                               -self.line.half_interval,
                               self.line.half_interval)
            identifiers[boundary_idx] = self.line.reduce(x[boundary_idx] + offsets)

        return self.line.movement_to(x, identifiers)

    # -- Rec ---------------------------------------------------------------------

    def recover(self, y: IntArray, s: IntArray) -> IntArray:
        """``Rec(y, s) -> z``: recover the enrolled template from a close reading.

        Raises :class:`RecoveryError` (the paper's ``⊥``) when some shifted
        coordinate lands further than ``t`` from its interval identifier —
        which, by Theorem 1, happens exactly when ``dis(x, y) > t`` for the
        original ``x`` (or when ``s`` is not a valid sketch).
        """
        y = self.line.validate_vector(y)
        s = self.validate_sketch(s)

        shifted = self.line.reduce(y + s)

        # A shifted point on a boundary is in no interval; genuine inputs
        # can never produce one because t < ka/2 strictly.
        if bool(np.any(self.line.is_boundary(shifted))):
            raise RecoveryError(
                "shifted coordinate fell on an interval boundary "
                "(reading too far from the enrolled template)"
            )

        identifiers = self.line.identifier_of(shifted)
        deviation = self.line.ring_distance(identifiers, shifted)
        worst = int(np.max(deviation))
        if worst > self.params.t:
            raise RecoveryError(
                f"reading deviates {worst} > t={self.params.t} "
                "from the nearest interval identifier"
            )
        return self.line.reduce(identifiers - s)

    # -- validation -----------------------------------------------------------------

    def validate_sketch(self, s: IntArray) -> IntArray:
        """Check that ``s`` is a structurally valid sketch vector.

        Movements must be integers with ``|s_i| <= ka/2``.  (A tampered
        sketch *within* this envelope is caught by the robust wrapper's
        hash, not here.)
        """
        arr = np.asarray(s)
        if arr.ndim != 1 or arr.shape[0] != self.params.n:
            raise ParameterError(
                f"sketch must be 1-D of length {self.params.n}, "
                f"got shape {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise ParameterError(f"sketch must be integer-typed, got {arr.dtype}")
        arr = arr.astype(np.int64)
        half = self.line.half_interval
        # Extremes, not abs: abs(-2**63) is still negative.
        if arr.size and (int(arr.min()) < -half or int(arr.max()) > half):
            raise ParameterError(
                f"sketch movement exceeds ka/2 = {self.line.half_interval}"
            )
        return arr

    def sketch_storage_bits(self) -> float:
        """Bits needed to store one sketch (Theorem 3's storage bound)."""
        return self.params.storage_bits
