"""Benchmark: the rebuilt signature kernel vs the retained affine reference.

The signature back-end dominates end-to-end identification once the
sketch search is sublinear (paper Table II), so the crypto kernel carries
the serving latency.  This suite times the kernel's layers and asserts
the PR's acceptance floors:

* Jacobian/wNAF scalar multiplication on the protocol hot path (the
  fixed-base generator mult that keygen and signing perform) >= 8x the
  retained affine double-and-add reference;
* precomputed-table verification >= 5x the cold affine reference verify
  for both EC schemes (DSA's fixed-base tables get a smaller floor — its
  cold baseline is builtin C ``pow``, not Python affine arithmetic);
* randomized Schnorr batch verification at k=32 >= 3x the *warm*
  single-table verify throughput on P-256 (>= 2.5x under smoke sizes,
  where the two-iteration timing is noisier) — the whole batch rides one
  multi-scalar multiplication, so the shared doubling chain is the win.

Every fast path is parity-checked against the reference implementation
before it is timed, so a reported speedup can never come from a wrong
answer.  When the ``gmpy2`` integer kernel is importable, a second floor
holds it to >= 3x the pure-Python kernel on variable-point scalar
multiplication and on warm-table verify for the slowest scheme.

Set ``REPRO_BENCH_SMOKE=1`` (the CI bench-smoke job does) to run the same
assertions at reduced iteration counts.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import build_stack
from repro.core.params import SystemParams
from repro.crypto import backend
from repro.crypto.ec import P256
from repro.crypto.prng import HmacDrbg
from repro.crypto.signatures import get_scheme
from repro.protocols.runners import run_identification
from repro.protocols.transport import DuplexLink

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

ITERATIONS = 3 if SMOKE else 8
IDENTIFY_USERS = 4 if SMOKE else 8
IDENTIFY_REQUESTS = 4 if SMOKE else 8
EC_SCHEMES = ["ecdsa-p-256", "schnorr-p-256"]
#: Batch-verify leg shape and floor (the acceptance criterion is k=32
#: at >= 3x; smoke keeps k but loosens the floor for two-iteration noise).
BATCH_K = 32
BATCH_FLOOR = 2.5 if SMOKE else 3.0
#: Batch and single verifies are timed in this many interleaved
#: alternations and compared by each side's fastest: host speed drifts
#: over seconds, so two timings taken one after the other can differ by
#: more than the floor's margin.
ALTERNATIONS = 7


def _mean_time(fn, iterations: int) -> float:
    """Mean wall-clock seconds of ``iterations`` calls of ``fn``."""
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def _fastest_interleaved(fns: dict, iterations: int) -> dict:
    """Each callable's fastest mean over ``ALTERNATIONS`` interleaved
    rounds of ``iterations`` calls."""
    best = {name: float("inf") for name in fns}
    for _ in range(ALTERNATIONS):
        for name, fn in fns.items():
            best[name] = min(best[name], _mean_time(fn, iterations))
    return best


def _scalars(count: int) -> list[int]:
    drbg = HmacDrbg(b"\0" * 8, personalization=b"kernel-floors")
    return [drbg.random_int_range(1, P256.n - 1) for _ in range(count)]


def _wnaf_s(iterations: int) -> float:
    """Variable-point wNAF scalar multiplication, parity-checked."""
    q = P256.multiply(7, P256.generator)
    scalars = _scalars(iterations)
    assert P256.multiply(scalars[0], q) == P256.multiply_affine(scalars[0], q)
    it = iter(scalars)
    return _mean_time(lambda: P256.multiply(next(it), q), iterations)


def _verify_s(name: str, iterations: int) -> tuple[float, float]:
    """(cold reference, warm-table) verify seconds for one scheme, after
    checking every path accepts a good signature and the table path
    rejects a forged one."""
    scheme = get_scheme(name)
    keypair = scheme.keygen_from_seed(b"kernel-floors-" + name.encode())
    message = b"kernel-floors-challenge"
    signature = scheme.sign(keypair.signing_key, message)
    table = scheme.precompute(keypair.verify_key)
    assert table is not None
    assert scheme.verify(keypair.verify_key, message, signature)
    assert scheme.verify(keypair.verify_key, message, signature, table=table)
    assert scheme.verify_reference(keypair.verify_key, message, signature)
    forged = bytearray(signature)
    forged[-1] ^= 1
    assert not scheme.verify(keypair.verify_key, message, bytes(forged),
                             table=table)
    cold = _mean_time(lambda: scheme.verify_reference(
        keypair.verify_key, message, signature), max(2, iterations // 4))
    warm = _mean_time(lambda: scheme.verify(
        keypair.verify_key, message, signature, table=table), iterations)
    return cold, warm


def _identify_s() -> tuple[float, float]:
    """End-to-end Fig. 3 identification seconds per pass: the first,
    fully cold pass and the third, where every verify hits a warm key
    table (the second pass builds the tables of recurring keys)."""
    params = SystemParams.paper_defaults(n=256)
    device, server, population = build_stack(
        params, IDENTIFY_USERS, scheme=get_scheme("ecdsa-p-256"))

    def one_pass() -> float:
        start = time.perf_counter()
        for request in range(IDENTIFY_REQUESTS):
            user = request % IDENTIFY_USERS
            outcome = run_identification(
                device, server, DuplexLink(),
                population.genuine_reading(user)).outcome
            assert outcome.identified
            assert outcome.user_id == population.user_ids()[user]
        return time.perf_counter() - start

    cold = one_pass()
    one_pass()
    return cold, one_pass()


def _batch(k=BATCH_K):
    scheme = get_scheme("schnorr-p-256")
    keypairs = [scheme.keygen_from_seed(b"bbv%02d" % i * 6) for i in range(k)]
    signatures = [scheme.sign(kp.signing_key, b"challenge")
                  for kp in keypairs]
    tables = [scheme.precompute(kp.verify_key) for kp in keypairs]
    items = [(kp.verify_key, b"challenge", sig)
             for kp, sig in zip(keypairs, signatures)]
    return scheme, items, tables


@pytest.fixture(scope="module")
def warm_curve():
    """P-256 with the comb and generator tables built outside the timers."""
    P256.multiply_base(1)
    P256.shamir_multiply(1, 1, P256.generator)
    return P256


class TestBenchScalarMult:
    K = 0x1CE1522F374F3AA2CE1522F374F3AA2C5D1522F374F3AA2CE1522F374F3AA2C5

    def test_bench_affine_reference(self, benchmark, warm_curve):
        benchmark.pedantic(
            lambda: warm_curve.multiply_affine(self.K, warm_curve.generator),
            rounds=1 if SMOKE else 2, iterations=1,
        )

    def test_bench_fixed_base(self, benchmark, warm_curve):
        result = benchmark(warm_curve.multiply, self.K, warm_curve.generator)
        assert not result.is_infinity

    def test_bench_wnaf_variable_point(self, benchmark, warm_curve):
        q = warm_curve.multiply(7, warm_curve.generator)
        result = benchmark(warm_curve.multiply, self.K, q)
        assert not result.is_infinity

    def test_bench_shamir_warm_table(self, benchmark, warm_curve):
        q = warm_curve.multiply(7, warm_curve.generator)
        table = warm_curve.precompute_table(q)
        result = benchmark(warm_curve.shamir_multiply, self.K, self.K + 1,
                           table=table)
        assert not result.is_infinity


@pytest.mark.parametrize("scheme_name", EC_SCHEMES + ["dsa-1024"])
class TestBenchVerifyPaths:
    def _fixture(self, scheme_name):
        scheme = get_scheme(scheme_name)
        keypair = scheme.keygen_from_seed(b"bench" * 8)
        signature = scheme.sign(keypair.signing_key, b"challenge")
        table = scheme.precompute(keypair.verify_key)
        return scheme, keypair, signature, table

    def test_bench_verify_cold_reference(self, benchmark, scheme_name):
        scheme, keypair, signature, _ = self._fixture(scheme_name)
        assert benchmark.pedantic(
            lambda: scheme.verify_reference(keypair.verify_key, b"challenge",
                                            signature),
            rounds=1 if SMOKE else 2, iterations=1,
        )

    def test_bench_verify_warm_table(self, benchmark, scheme_name):
        scheme, keypair, signature, table = self._fixture(scheme_name)
        assert benchmark(scheme.verify, keypair.verify_key, b"challenge",
                         signature, table)


class TestBenchBatchVerify:
    def test_bench_batch_verify_warm(self, benchmark):
        scheme, items, tables = _batch()
        verdicts = benchmark(scheme.verify_batch, items, tables)
        assert verdicts == [True] * BATCH_K

    def test_bench_batch_verify_with_one_forgery(self, benchmark):
        """The bisection path: one forged member costs ~log k extra
        aggregate checks, never a full serial fallback."""
        scheme, items, tables = _batch()
        key, message, signature = items[BATCH_K // 2]
        bad = bytearray(signature)
        bad[-1] ^= 1
        items[BATCH_K // 2] = (key, message, bytes(bad))
        verdicts = benchmark(scheme.verify_batch, items, tables)
        assert verdicts == [i != BATCH_K // 2 for i in range(BATCH_K)]


def test_kernel_speedup_floors(benchmark, warm_curve):
    """Acceptance floors: >= 8x scalar mult, >= 5x warm-table EC verify,
    >= 2.5x warm-table DSA verify, batch verify at k=32 >= 3x the warm
    single verify (2.5x at smoke sizes), and warm identification no
    worse than 3x cold."""
    g = warm_curve.generator
    scalars = _scalars(ITERATIONS)
    q = warm_curve.multiply(scalars[-1], g)
    table = warm_curve.precompute_table(q)
    for k in scalars[:2]:
        assert warm_curve.multiply(k, g) == warm_curve.multiply_affine(k, g)
    u1, u2 = scalars[:2]
    assert warm_curve.shamir_multiply(u1, u2, table=table) == warm_curve.add(
        warm_curve.multiply_affine(u1, g), warm_curve.multiply_affine(u2, q))
    batch_scheme, items, tables = _batch()
    assert batch_scheme.verify_batch(items, tables) == [True] * BATCH_K
    forged = list(items)
    key, message, signature = forged[BATCH_K // 2]
    forged[BATCH_K // 2] = (key, message, signature[:-1]
                            + bytes([signature[-1] ^ 1]))
    assert batch_scheme.verify_batch(forged, tables) == \
        [i != BATCH_K // 2 for i in range(BATCH_K)]

    def singles():
        return [batch_scheme.verify(*item, table=t)
                for item, t in zip(items, tables)]

    def measure():
        it = iter(scalars)
        return {
            "affine": _mean_time(
                lambda: warm_curve.multiply_affine(scalars[0], g),
                max(2, ITERATIONS // 4)),
            "fixed_base": _mean_time(
                lambda: warm_curve.multiply(next(it), g), ITERATIONS),
            "verify": {name: _verify_s(name, ITERATIONS)
                       for name in EC_SCHEMES + ["dsa-1024"]},
            **_fastest_interleaved({
                "batch": lambda: batch_scheme.verify_batch(items, tables),
                "singles": singles,
            }, iterations=2),
            "identify": _identify_s(),
        }

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = times["affine"] / times["fixed_base"]
    assert speedup >= 8.0, (
        f"fixed-base wNAF/Jacobian scalar mult only x{speedup:.1f} over "
        f"the affine reference; the kernel promises >= 8x"
    )
    for name in EC_SCHEMES:
        cold, warm = times["verify"][name]
        assert cold / warm >= 5.0, (
            f"{name} warm-table verify only x{cold / warm:.1f} over the "
            f"cold affine reference; the kernel promises >= 5x"
        )
    # DSA's cold baseline is builtin C pow, so the honest floor is lower.
    cold, warm = times["verify"]["dsa-1024"]
    assert cold / warm >= 2.5
    # Randomized batch verification at k=32: the whole batch rides one
    # multi-scalar multiplication, so the shared doubling chain must
    # beat per-signature warm verifies (each side's fastest of the
    # interleaved alternations).
    batch_speedup = times["singles"] / times["batch"]
    assert batch_speedup >= BATCH_FLOOR, (
        f"schnorr-p-256 verify_batch at k={BATCH_K} only "
        f"x{batch_speedup:.2f} the warm single-verify throughput; the "
        f"multi-scalar kernel promises >= {BATCH_FLOOR}x"
    )
    # Loose sanity bound only: each pass is a handful of requests, so
    # the ratio is noisy; this catches "caching made identification
    # terrible", not jitter.
    cold, warm = times["identify"]
    assert warm <= cold * 3.0


@pytest.mark.skipif("gmpy2" not in backend.available_backends(),
                    reason="the gmpy2 integer kernel is not installed")
def test_gmpy2_kernel_speedup_floor():
    """Floor: the gmpy2 kernel is >= 3x the pure-Python one on wNAF
    scalar multiplication and on warm-table verify for the slowest of
    the three schemes (each leg parity-checked before it is timed)."""
    schemes = EC_SCHEMES + ["dsa-1024"]
    legs = {}
    for name in ("python", "gmpy2"):
        with backend.use_backend(name):
            legs[name] = (_wnaf_s(6), [_verify_s(s, 6)[1] for s in schemes])
    wnaf_x = legs["python"][0] / legs["gmpy2"][0]
    verify_x = min(py / gm for py, gm in zip(legs["python"][1],
                                             legs["gmpy2"][1]))
    assert wnaf_x >= 3.0, f"gmpy2 wNAF scalar mult only x{wnaf_x:.1f}"
    assert verify_x >= 3.0, f"gmpy2 warm-table verify only x{verify_x:.1f}"
