"""Sketch matching — the paper's conditions (1)-(4) (Section V, Theorem 2).

The identification protocol's server-side search compares the *fresh*
sketch ``s'`` against every *enrolled* sketch ``s`` coordinate-wise.  The
paper states four conditions (with ``ka`` the interval width):

==========================  =====================================
``s_i > 0,  s'_i > 0``      ``|s_i - s'_i| ∈ [0, t]``          (1)
``s_i <= 0, s'_i <= 0``     ``|s_i - s'_i| ∈ [0, t]``          (2)
``s_i > 0,  s'_i <= 0``     ``|s_i - s'_i - ka| ∉ (t, ka-t)``  (3)
``s_i <= 0, s'_i > 0``      ``|s_i - s'_i + ka| ∉ (t, ka-t)``  (4)
==========================  =====================================

**Equivalence.**  Sketch movements live in ``[-ka/2, ka/2]`` and are only
meaningful modulo ``ka`` (moving a point one whole interval changes its
identifier, not its offset inside the interval).  All four conditions say
exactly::

    ring_distance_ka(s_i, s'_i) <= t

on the ring of circumference ``ka``: (1)/(2) are the no-wrap case
(``|s - s'| <= ka/2 + ka/2`` but with equal signs ``|s - s'| <= ka/2``, so
the ring distance *is* ``|s - s'|``); for (3), ``u = s - s' ∈ (0, ka]`` and
``|u - ka| ∉ (t, ka-t)`` unfolds to ``u <= t`` (direct) or
``ka - u <= t`` (wrapped); (4) is the mirror image.  Both forms are
implemented and property-tested against each other; the ring form is what
the vectorised scan uses.

Theorem 2 (completeness): readings within Chebyshev distance ``t`` always
satisfy the conditions.  Soundness is statistical: two *unrelated*
templates pass with probability ``Pr[E] = ((2t+1)^n (v^n - 1)) / (kav)^n``
(< ``((2t+1)/ka)^n``), negligible in the dimension ``n``.
"""

from __future__ import annotations

import numpy as np

from repro.core.numberline import IntArray
from repro.core.params import SystemParams

__all__ = [
    "ring_distance_ka",
    "sketches_match",
    "sketches_match_literal",
    "match_matrix",
]


def ring_distance_ka(s: IntArray, s_prime: IntArray, interval_width: int) -> IntArray:
    """Per-coordinate ring distance between sketch vectors (circumference ``ka``).

    One modulo suffices: with ``r = |s - s'| mod ka`` in ``[0, ka)``, the
    wrapped distance is ``min(r, ka - r)`` (``r == 0`` gives 0 either way,
    so the second reduction the literal form needs is redundant).  The
    augmented assignment reduces the fresh ``|diff|`` buffer in place for
    array inputs while still accepting scalars / 0-d arrays.
    """
    diff = np.abs(np.asarray(s, dtype=np.int64)
                  - np.asarray(s_prime, dtype=np.int64))
    diff %= interval_width
    return np.minimum(diff, interval_width - diff)


def sketches_match(s: IntArray, s_prime: IntArray, params: SystemParams) -> bool:
    """Ring-distance form: every coordinate within ``t`` on the ``ka`` ring."""
    distances = ring_distance_ka(s, s_prime, params.interval_width)
    return bool(np.all(distances <= params.t))


def sketches_match_literal(s: IntArray, s_prime: IntArray,
                           params: SystemParams) -> bool:
    """The paper's four conditions, transcribed verbatim (reference / tests).

    Slower than :func:`sketches_match`; exists to prove the equivalence
    claim and to keep the reproduction auditable against the paper text.
    """
    s = np.asarray(s, dtype=np.int64)
    s_prime = np.asarray(s_prime, dtype=np.int64)
    ka = params.interval_width
    t = params.t

    for si, spi in zip(s.tolist(), s_prime.tolist()):
        if si > 0 and spi > 0:              # condition (1)
            ok = abs(si - spi) <= t
        elif si <= 0 and spi <= 0:          # condition (2)
            ok = abs(si - spi) <= t
        elif si > 0 and spi <= 0:           # condition (3)
            value = abs(si - spi - ka)
            ok = not (t < value < ka - t)
        else:                               # condition (4): si <= 0 < spi
            value = abs(si - spi + ka)
            ok = not (t < value < ka - t)
        if not ok:
            return False
    return True


def match_matrix(enrolled: np.ndarray, probe: IntArray,
                 params: SystemParams) -> np.ndarray:
    """Vectorised conditions check of one probe against many sketches.

    ``enrolled`` is an ``(N, n)`` matrix of sketch vectors; returns a
    boolean array of length ``N``.  This is the reference one-shot
    implementation; :func:`repro.core.index.batch_match_rows` adds
    lookup tables and chunked early-abort on top for the protocol hot
    path.
    """
    enrolled = np.asarray(enrolled, dtype=np.int64)
    if enrolled.ndim != 2:
        raise ValueError(f"enrolled must be 2-D (N, n), got {enrolled.shape}")
    ka = params.interval_width
    diff = enrolled - np.asarray(probe, dtype=np.int64)[None, :]
    np.abs(diff, out=diff)
    np.mod(diff, ka, out=diff)
    ring = np.minimum(diff, ka - diff)
    return np.all(ring <= params.t, axis=1)
