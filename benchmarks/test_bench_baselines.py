"""Ablation: baseline fuzzy extractors vs the proposed scheme.

Positions the paper's contribution against the related-work constructions
(Section VIII): the BCH-backed code-offset extractor (Juels-Wattenberg)
and the RS-backed fuzzy vault (Juels-Sudan).

Two comparisons:

* primitive cost — Gen/Rep (lock/unlock) per scheme;
* identification cost — what an identification round costs when the
  database must be searched by running each scheme's Rep per record
  (the only option for Hamming/set-difference helpers, which expose
  nothing searchable), vs the proposed scheme's sketch search.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines.fuzzy_vault import FuzzyVault
from repro.baselines.hamming_extractor import HammingFuzzyExtractor
from repro.coding.bch import BchCode
from repro.core.extractor import SuccinctFuzzyExtractor
from repro.core.params import SystemParams
from repro.core.sketch import ChebyshevSketch
from repro.crypto.prng import HmacDrbg
from repro.engine.sharded import ShardedSketchIndex
from repro.exceptions import RecoveryError

N_USERS = 50


@pytest.fixture(scope="module")
def hamming_fe():
    return HammingFuzzyExtractor(BchCode(8, 20))  # n=255 bits, t=20


@pytest.fixture(scope="module")
def chebyshev_fe():
    return SuccinctFuzzyExtractor(SystemParams.paper_defaults(n=2000))


@pytest.fixture(scope="module")
def vault_scheme():
    return FuzzyVault(m=16, k=8, n_chaff=300)


class TestPrimitiveCosts:
    def test_bench_chebyshev_gen(self, benchmark, chebyshev_fe, bench_rng):
        params = chebyshev_fe.params
        template = bench_rng.integers(-params.half_range, params.half_range,
                                      size=params.n, dtype=np.int64)
        benchmark(chebyshev_fe.generate, template, HmacDrbg(b"c"))

    def test_bench_hamming_gen(self, benchmark, hamming_fe, bench_rng):
        template = bench_rng.integers(0, 2, size=hamming_fe.n, dtype=np.uint8)
        benchmark(hamming_fe.generate, template, HmacDrbg(b"h"))

    def test_bench_hamming_rep(self, benchmark, hamming_fe, bench_rng):
        template = bench_rng.integers(0, 2, size=hamming_fe.n, dtype=np.uint8)
        secret, helper = hamming_fe.generate(template, HmacDrbg(b"h"))
        noisy = template.copy()
        noisy[bench_rng.choice(hamming_fe.n, size=hamming_fe.t,
                               replace=False)] ^= 1
        result = benchmark(hamming_fe.reproduce, noisy, helper)
        assert result == secret

    def test_bench_vault_lock(self, benchmark, vault_scheme, bench_rng):
        features = bench_rng.choice(2 ** 16, size=40, replace=False
                                    ).astype(np.int64)
        secret = vault_scheme.secret_from_bytes(b"vault-secret")
        benchmark(vault_scheme.lock, features, secret, HmacDrbg(b"v"))

    def test_bench_vault_unlock(self, benchmark, vault_scheme, bench_rng):
        features = bench_rng.choice(2 ** 16, size=40, replace=False
                                    ).astype(np.int64)
        secret = vault_scheme.secret_from_bytes(b"vault-secret")
        vault = vault_scheme.lock(features, secret, HmacDrbg(b"v"))
        query = features[:32]
        result = benchmark(vault_scheme.unlock, query, vault)
        assert result == secret

    def test_bench_concatenated_gen(self, benchmark, bench_rng):
        """Iris-scale concatenated (BCH ∘ RS) extractor: full 2032 bits."""
        from repro.baselines.block_code_offset import (
            ConcatenatedCodeOffsetExtractor,
        )
        from repro.coding.bch import BchCode

        fe = ConcatenatedCodeOffsetExtractor(BchCode(7, 13), 16, 8)
        template = bench_rng.integers(0, 2, size=fe.template_bits,
                                      dtype=np.uint8)
        benchmark(fe.generate, template, HmacDrbg(b"cc"))

    def test_bench_concatenated_rep(self, benchmark, bench_rng):
        from repro.baselines.block_code_offset import (
            ConcatenatedCodeOffsetExtractor,
        )
        from repro.coding.bch import BchCode

        fe = ConcatenatedCodeOffsetExtractor(BchCode(7, 13), 16, 8)
        template = bench_rng.integers(0, 2, size=fe.template_bits,
                                      dtype=np.uint8)
        secret, helper = fe.generate(template, HmacDrbg(b"cc"))
        noisy = template.copy()
        noisy[bench_rng.choice(fe.template_bits, size=120,
                               replace=False)] ^= 1
        result = benchmark(fe.reproduce, noisy, helper)
        assert result == secret


class TestIdentificationGap:
    """The motivating gap: per-record Rep scan vs sketch search."""

    def test_hamming_identification_is_linear(self, benchmark, hamming_fe,
                                              bench_rng, capsys):
        def measure():
            return self._measure_gap(hamming_fe, bench_rng)

        scan_ms, search_ms, rep_calls, found, matches = benchmark.pedantic(
            measure, rounds=1, iterations=1)
        assert found == N_USERS - 1
        assert rep_calls == N_USERS
        assert matches == [N_USERS - 1]
        with capsys.disabled():
            print(f"\n=== Identification search over {N_USERS} users ===")
            print(f"Hamming FE (Rep per record): {scan_ms:8.2f} ms, "
                  f"{rep_calls} Rep calls")
            print(f"Proposed (sketch search):    {search_ms:8.2f} ms, "
                  f"0 Rep calls")
            print(f"speedup: {scan_ms / max(search_ms, 1e-6):.0f}x")
        assert search_ms < scan_ms

    @staticmethod
    def _measure_gap(hamming_fe, bench_rng):
        # Enroll N users with the Hamming FE.
        helpers = []
        secrets = []
        templates = []
        for i in range(N_USERS):
            template = bench_rng.integers(0, 2, size=hamming_fe.n,
                                          dtype=np.uint8)
            secret, helper = hamming_fe.generate(
                template, HmacDrbg(i.to_bytes(4, "big"))
            )
            templates.append(template)
            helpers.append(helper)
            secrets.append(secret)

        # Identification of the last-enrolled user = exhaustive Rep scan.
        probe = templates[-1].copy()
        probe[bench_rng.choice(hamming_fe.n, size=5, replace=False)] ^= 1

        start = time.perf_counter()
        found = None
        rep_calls = 0
        for i, helper in enumerate(helpers):
            rep_calls += 1
            try:
                if hamming_fe.reproduce(probe, helper) == secrets[i]:
                    found = i
                    break
            except RecoveryError:
                continue
        scan_ms = (time.perf_counter() - start) * 1e3

        # The proposed scheme's search over the same population size.
        params = SystemParams.paper_defaults(n=2000)
        sketcher = ChebyshevSketch(params)
        index = ShardedSketchIndex(params, shards=1)
        rng = np.random.default_rng(7)
        last_template = None
        for i in range(N_USERS):
            last_template = sketcher.line.uniform_vector(rng)
            index.add(sketcher.sketch(last_template,
                                      HmacDrbg(i.to_bytes(4, "big") + b"c")))
        noisy = sketcher.line.reduce(
            last_template + rng.integers(-params.t, params.t + 1, params.n)
        )
        sketch_probe = sketcher.sketch(noisy, HmacDrbg(b"probe"))
        start = time.perf_counter()
        matches = index.search(sketch_probe)
        search_ms = (time.perf_counter() - start) * 1e3
        return scan_ms, search_ms, rep_calls, found, matches

    def test_bench_hamming_rep_scan_50_users(self, benchmark, hamming_fe,
                                             bench_rng):
        helpers = []
        templates = []
        for i in range(N_USERS):
            template = bench_rng.integers(0, 2, size=hamming_fe.n,
                                          dtype=np.uint8)
            _, helper = hamming_fe.generate(template,
                                            HmacDrbg(i.to_bytes(4, "big")))
            templates.append(template)
            helpers.append(helper)
        probe = templates[-1]

        def scan():
            hits = 0
            for helper in helpers:
                try:
                    hamming_fe.reproduce(probe, helper)
                    hits += 1
                except RecoveryError:
                    continue
            return hits

        assert benchmark.pedantic(scan, rounds=3, iterations=1) == 1
