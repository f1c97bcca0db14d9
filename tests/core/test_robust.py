"""Tests for the robust (hash-bound) secure sketch."""

import numpy as np
import pytest

from repro.core.params import SystemParams
from repro.core.robust import RobustChebyshevSketch, RobustSketchValue
from repro.crypto.prng import HmacDrbg
from repro.exceptions import ParameterError, RecoveryError, TamperDetectedError


@pytest.fixture
def robust(paper_params):
    return RobustChebyshevSketch(paper_params)


class TestRoundTrip:
    def test_recover_close_reading(self, robust, paper_params, rng, drbg):
        x = robust.inner.line.uniform_vector(rng)
        value = robust.sketch(x, drbg)
        noise = rng.integers(-paper_params.t, paper_params.t + 1,
                             size=paper_params.n)
        y = robust.inner.line.reduce(x + noise)
        assert np.array_equal(robust.recover(y, value),
                              robust.inner.line.reduce(x))

    def test_far_reading_raises_recovery_not_tamper(self, robust, rng, drbg):
        x = robust.inner.line.uniform_vector(rng)
        value = robust.sketch(x, drbg)
        y = robust.inner.line.uniform_vector(rng)
        with pytest.raises(RecoveryError):
            robust.recover(y, value)
        with pytest.raises(Exception) as excinfo:
            robust.recover(y, value)
        assert not isinstance(excinfo.value, TamperDetectedError)


class TestTamperDetection:
    def test_modified_movement_detected(self, robust, paper_params, rng, drbg):
        x = robust.inner.line.uniform_vector(rng)
        value = robust.sketch(x, drbg)
        tampered = value.movements.copy()
        # Shift one movement by a whole interval-compatible amount that
        # keeps the sketch structurally valid but changes recovery.
        delta = 2 if abs(int(tampered[0]) + 2) <= paper_params.interval_width // 2 else -2
        tampered[0] = int(tampered[0]) + delta
        bad = RobustSketchValue(movements=tampered, tag=value.tag)
        with pytest.raises(RecoveryError):
            # Either the shifted coordinate leaves the acceptance window
            # (RecoveryError) or recovery succeeds with a wrong value and
            # the tag catches it (TamperDetectedError, a subclass).
            robust.recover(x, bad)

    def test_interval_shift_attack_caught_by_tag(self, robust, paper_params,
                                                 rng, drbg):
        """Shifting input+sketch by a full interval fools Rec but not H."""
        line = robust.inner.line
        x = line.uniform_vector(rng)
        value = robust.sketch(x, drbg)
        # Attacker shifts the reading by exactly one interval: Rec recovers
        # x + ka (a *valid* template) — only the hash detects the swap.
        y = line.reduce(x + paper_params.interval_width)
        with pytest.raises(TamperDetectedError):
            robust.recover(y, value)

    def test_modified_tag_detected(self, robust, rng, drbg):
        x = robust.inner.line.uniform_vector(rng)
        value = robust.sketch(x, drbg)
        bad_tag = bytes([value.tag[0] ^ 1]) + value.tag[1:]
        bad = RobustSketchValue(movements=value.movements, tag=bad_tag)
        with pytest.raises(TamperDetectedError):
            robust.recover(x, bad)

    def test_swapped_sketches_detected(self, robust, rng):
        """Helper data from user A with tag from user B must not verify."""
        x_a = robust.inner.line.uniform_vector(rng)
        x_b = robust.inner.line.uniform_vector(rng)
        value_a = robust.sketch(x_a, HmacDrbg(b"a"))
        value_b = robust.sketch(x_b, HmacDrbg(b"b"))
        frankenstein = RobustSketchValue(
            movements=value_a.movements, tag=value_b.tag
        )
        with pytest.raises(RecoveryError):
            robust.recover(x_a, frankenstein)


class TestValueValidation:
    def test_tag_must_be_32_bytes(self):
        with pytest.raises(ParameterError, match="32-byte"):
            RobustSketchValue(movements=np.zeros(4, dtype=np.int64),
                              tag=b"short")

    def test_storage_accounting(self, robust, rng, drbg):
        x = robust.inner.line.uniform_vector(rng)
        value = robust.sketch(x, drbg)
        # Width byte, two bytes per movement (|m| <= ka/2 = 200), tag.
        assert value.storage_bytes() == 1 + 2 * len(value.movements) + 32
