"""Tests for the succinct fuzzy extractor (Gen/Rep) and helper data."""

import numpy as np
import pytest

from repro.core.extractor import HelperData, SuccinctFuzzyExtractor
from repro.core.params import SystemParams
from repro.crypto.extractors import Sha256Extractor, UniversalHashExtractor
from repro.crypto.prng import HmacDrbg
from repro.exceptions import ParameterError, RecoveryError, TamperDetectedError


@pytest.fixture
def fe(paper_params):
    return SuccinctFuzzyExtractor(paper_params)


def _noisy(fe, x, rng):
    t = fe.params.t
    return fe.sketcher.line.reduce(
        x + rng.integers(-t, t + 1, size=fe.params.n)
    )


class TestGenRep:
    def test_rep_reproduces_R_exactly(self, fe, rng, drbg):
        x = fe.sketcher.line.uniform_vector(rng)
        secret, helper = fe.generate(x, drbg)
        assert fe.reproduce(_noisy(fe, x, rng), helper) == secret

    def test_R_is_32_bytes_default(self, fe, rng, drbg):
        x = fe.sketcher.line.uniform_vector(rng)
        secret, _ = fe.generate(x, drbg)
        assert len(secret) == 32

    def test_deterministic_given_drbg(self, fe, rng):
        x = fe.sketcher.line.uniform_vector(rng)
        r1 = fe.generate(x, HmacDrbg(b"fixed"))
        r2 = fe.generate(x, HmacDrbg(b"fixed"))
        assert r1[0] == r2[0]
        assert np.array_equal(r1[1].movements, r2[1].movements)
        assert r1[1].seed == r2[1].seed

    def test_different_users_different_secrets(self, fe, rng, drbg):
        x1 = fe.sketcher.line.uniform_vector(rng)
        x2 = fe.sketcher.line.uniform_vector(rng)
        s1, _ = fe.generate(x1, HmacDrbg(b"u1"))
        s2, _ = fe.generate(x2, HmacDrbg(b"u2"))
        assert s1 != s2

    def test_far_reading_rejected(self, fe, rng, drbg):
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, drbg)
        with pytest.raises(RecoveryError):
            fe.reproduce(fe.sketcher.line.uniform_vector(rng), helper)

    def test_works_with_universal_extractor(self, paper_params, rng, drbg):
        fe = SuccinctFuzzyExtractor(
            paper_params,
            extractor=UniversalHashExtractor(output_bytes=32, field_bits=2203),
        )
        x = fe.sketcher.line.uniform_vector(rng)
        secret, helper = fe.generate(x, drbg)
        assert fe.reproduce(_noisy(fe, x, rng), helper) == secret

    def test_output_length_configurable(self, paper_params, rng, drbg):
        fe = SuccinctFuzzyExtractor(
            paper_params, extractor=Sha256Extractor(output_bytes=16)
        )
        x = fe.sketcher.line.uniform_vector(rng)
        secret, _ = fe.generate(x, drbg)
        assert len(secret) == 16


class TestTamperDetection:
    def test_tampered_seed_accepted_without_bind_seed(self, paper_params,
                                                      rng, drbg):
        """Paper-faithful mode: the tag does not cover r (documented gap)."""
        fe = SuccinctFuzzyExtractor(paper_params, bind_seed=False)
        x = fe.sketcher.line.uniform_vector(rng)
        secret, helper = fe.generate(x, drbg)
        swapped = HelperData(movements=helper.movements, tag=helper.tag,
                             seed=bytes(32))
        # Rep succeeds but derives a *different* key — the gap in action.
        other = fe.reproduce(x, swapped)
        assert other != secret

    def test_tampered_seed_rejected_with_bind_seed(self, paper_params,
                                                   rng, drbg):
        fe = SuccinctFuzzyExtractor(paper_params, bind_seed=True)
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, drbg)
        swapped = HelperData(movements=helper.movements, tag=helper.tag,
                             seed=bytes(32))
        with pytest.raises(TamperDetectedError):
            fe.reproduce(x, swapped)

    def test_tampered_tag_rejected(self, fe, rng, drbg):
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, drbg)
        bad = HelperData(movements=helper.movements,
                         tag=bytes([helper.tag[0] ^ 0xFF]) + helper.tag[1:],
                         seed=helper.seed)
        with pytest.raises(TamperDetectedError):
            fe.reproduce(x, bad)

    def test_interval_shift_rejected(self, fe, paper_params, rng, drbg):
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, drbg)
        shifted = fe.sketcher.line.reduce(x + paper_params.interval_width)
        with pytest.raises(TamperDetectedError):
            fe.reproduce(shifted, helper)


class TestHelperDataSerialisation:
    def test_roundtrip(self, fe, rng, drbg):
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, drbg)
        decoded = HelperData.from_bytes(helper.to_bytes())
        assert np.array_equal(decoded.movements, helper.movements)
        assert decoded.tag == helper.tag
        assert decoded.seed == helper.seed

    def test_truncated_rejected(self, fe, rng, drbg):
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, drbg)
        data = helper.to_bytes()
        with pytest.raises(ParameterError, match="malformed"):
            HelperData.from_bytes(data[:-3])

    def test_trailing_garbage_rejected(self, fe, rng, drbg):
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, drbg)
        with pytest.raises(ParameterError, match="malformed"):
            HelperData.from_bytes(helper.to_bytes() + b"junk")

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            HelperData.from_bytes(b"")

    def test_storage_accounting(self, fe, rng, drbg):
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, drbg)
        assert helper.storage_bytes() == len(helper.to_bytes())
        # Layout byte, 2-byte tag and seed lengths, 4-byte vector length,
        # width byte; |m| <= ka/2 = 200 needs two bytes per movement.
        assert helper.storage_bytes() == 1 + 2 + 32 + 2 + 32 + 4 + 1 + \
            2 * fe.params.n


#: Bench parameters (n = 128, ka = 400) and a fixed template; the
#: expected values below were produced by the int64-layout build, so
#: these tests pin that the compact layout moves no key.
KAT_SEED = b"kat-seed"


def _kat_template(n: int) -> np.ndarray:
    return (np.arange(n, dtype=np.int64) * 1_543) % 200_001 - 100_000


def _kat_extractor(n: int, **kwargs) -> SuccinctFuzzyExtractor:
    return SuccinctFuzzyExtractor(SystemParams.paper_defaults(n=n), **kwargs)


def _kat_generate(n: int, **kwargs):
    fe = _kat_extractor(n, **kwargs)
    secret, helper = fe.generate(
        _kat_template(n), HmacDrbg(KAT_SEED, personalization=b"kat"))
    return fe, secret, helper


#: ``HelperData.to_bytes()`` of ``_kat_generate(4)`` in the legacy layout:
#: 8-byte movement length, int64 movements, then tag and seed.
LEGACY_BLOB_N4 = bytes.fromhex(
    "0000000000000020"
    "00000000000000c8ffffffffffffff71ffffffffffffffaaffffffffffffffe3"
    "0020c76fea6029bf34b53a039e72d7c5c31f05e8b4345bc0d3e6cda85b840c8db1b1"
    "002054209a0b3e32cbdec806757e3a80c729f59ae4b95b3161c590518db0a11e88a5")
LEGACY_R_N4 = bytes.fromhex(
    "4222ac2f377b57bee9822b5e9128d4f7afa2d9165633f1e83fd7411ecbdf4c7d")


class TestKnownAnswer:
    def test_tag_and_secret_at_bench_parameters(self):
        _, secret, helper = _kat_generate(128)
        assert helper.tag.hex() == (
            "25bead5c531351c70101d60f863648a16f3cf46663fc1afd1035a82f302066df")
        assert secret.hex() == (
            "8e3996ae6dba9dc9052d8432c0e140944eb7ae32b1ee985acf2dac2964583bb0")
        assert helper.movements[:4].tolist() == [200, -143, -86, -29]

    def test_legacy_blob_decodes_to_its_compact_re_encoding(self):
        fe, secret, helper = _kat_generate(4)
        legacy = HelperData.from_bytes(LEGACY_BLOB_N4)
        compact = legacy.to_bytes()
        assert compact[0] == 0x01 and len(compact) < len(LEGACY_BLOB_N4)
        again = HelperData.from_bytes(compact)
        for decoded in (legacy, again):
            assert decoded.movements.tolist() == helper.movements.tolist()
            assert decoded.tag == helper.tag and decoded.seed == helper.seed
        assert compact == helper.to_bytes()
        assert secret == LEGACY_R_N4
        assert fe.reproduce(_kat_template(4), legacy) == LEGACY_R_N4
        assert fe.reproduce(_kat_template(4), again) == LEGACY_R_N4

    @pytest.mark.parametrize("blob", [
        LEGACY_BLOB_N4[:-1],
        LEGACY_BLOB_N4 + b"\x00",
        b"\x00" * 7,
        # A 33-byte movement body is not whole int64 words.
        (33).to_bytes(8, "big") + b"\x00" * 33 + b"\x00\x00\x00\x00",
    ], ids=["truncated", "trailing", "short-length", "ragged"])
    def test_malformed_legacy_blob_refused(self, blob):
        with pytest.raises(ParameterError, match="malformed"):
            HelperData.from_bytes(blob)

    @pytest.mark.parametrize("first", [0x02, 0x7F, 0xFF])
    def test_unknown_layout_byte_refused(self, first):
        _, _, helper = _kat_generate(4)
        blob = bytes([first]) + helper.to_bytes()[1:]
        with pytest.raises(ParameterError, match="layout"):
            HelperData.from_bytes(blob)


class TestFailClosedMutation:
    """Every single-byte change to a compact blob at the bench parameters
    is refused by ``from_bytes`` or fails ``Rep``; none yields a key."""

    @staticmethod
    def _mutations(blob: bytes):
        for pos in range(len(blob)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(blob)
                mutated[pos] ^= flip
                yield pos, bytes(mutated)

    def test_seed_bound_extractor_never_returns_a_key(self):
        fe, _, helper = _kat_generate(128, bind_seed=True)
        x = _kat_template(128)
        refused = failed = 0
        for pos, mutated in self._mutations(helper.to_bytes()):
            try:
                tampered = HelperData.from_bytes(mutated)
            except ParameterError:
                refused += 1
                continue
            with pytest.raises(RecoveryError):
                fe.reproduce(x, tampered)
            failed += 1
        assert refused and failed

    def test_paper_extractor_fails_closed_outside_the_seed(self):
        """With the paper's unbound seed (``bind_seed=False``) a changed
        seed byte yields a *different* key, never the enrolled one, and
        the signature check downstream rejects it; every other byte
        fails closed as above."""
        fe, secret, helper = _kat_generate(128)
        x = _kat_template(128)
        blob = helper.to_bytes()
        seed_at = 1 + 2 + len(helper.tag) + 2
        seed_bytes = range(seed_at, seed_at + len(helper.seed))
        for pos, mutated in self._mutations(blob):
            try:
                tampered = HelperData.from_bytes(mutated)
            except ParameterError:
                continue
            if pos in seed_bytes:
                assert fe.reproduce(x, tampered) != secret
                continue
            with pytest.raises(RecoveryError):
                fe.reproduce(x, tampered)

    def test_out_of_range_movement_is_tamper_not_parameter_error(self):
        fe, _, helper = _kat_generate(4)
        movements = helper.movements.copy()
        movements[0] = 201  # beyond ka/2 = 200
        forged = HelperData(movements=movements, tag=helper.tag,
                            seed=helper.seed)
        with pytest.raises(TamperDetectedError, match="no valid sketch"):
            fe.reproduce(_kat_template(4), forged)
        short = HelperData(movements=helper.movements[:3], tag=helper.tag,
                           seed=helper.seed)
        with pytest.raises(TamperDetectedError, match="no valid sketch"):
            fe.reproduce(_kat_template(4), short)
