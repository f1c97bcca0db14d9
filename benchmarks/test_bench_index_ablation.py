"""Ablation: server-side sketch search strategies.

The paper calls its identification search "constant" after
pre-computation.  This ablation quantifies the three implementations:

* ``naive``  — per-record Python loop over the conditions (no
  pre-computation; the strawman reading of Fig. 3's search);
* ``scan``   — numpy early-abort scan (our production default; the
  paper's "check whether s'_i is in the specific range" done in bulk);
* ``prefix`` — inverted bucket index (sub-linear candidate retrieval;
  pays off when t/ka is small).

The punchline the paper's "constant" rests on: at paper parameters the
scan costs microseconds per thousand records — far below the signature
round (device sign + server verify) that follows, so the protocol's
end-to-end cost is flat in practice.  The fast signature kernel (fixed-
base comb tables) has since pushed a lone DSA *sign* below the 5000-user
scan cost, so the comparison measures the full sign+verify crypto leg —
the constant the protocol actually pays per challenge.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.index import NaiveLoopIndex, PrefixBucketIndex
from repro.core.params import SystemParams
from repro.core.sketch import ChebyshevSketch
from repro.crypto.prng import HmacDrbg
from repro.engine.sharded import ShardedSketchIndex

DIMENSION = 1000
DB_SIZES = [100, 1000, 5000]

_built: dict[tuple, tuple] = {}


def _build(index_kind: str, n_users: int):
    key = (index_kind, n_users)
    if key in _built:
        return _built[key]
    params = SystemParams.paper_defaults(n=DIMENSION)
    sketcher = ChebyshevSketch(params)
    rng = np.random.default_rng(42)
    factory = {
        "naive": lambda p: NaiveLoopIndex(p),
        "scan": lambda p: ShardedSketchIndex(p, shards=1),
        "prefix": lambda p: PrefixBucketIndex(p, depth=8),
    }[index_kind]
    index = factory(params)
    target_template = None
    for i in range(n_users):
        template = sketcher.line.uniform_vector(rng)
        index.add(sketcher.sketch(template, HmacDrbg(i.to_bytes(4, "big"))))
        if i == n_users - 1:
            target_template = template
    noisy = sketcher.line.reduce(
        target_template + rng.integers(-params.t, params.t + 1, DIMENSION)
    )
    probe = sketcher.sketch(noisy, HmacDrbg(b"probe"))
    _built[key] = (index, probe, n_users - 1)
    return _built[key]


@pytest.mark.parametrize("n_users", DB_SIZES)
@pytest.mark.parametrize("index_kind", ["naive", "scan", "prefix"])
def test_bench_index_search(benchmark, index_kind, n_users):
    if index_kind == "naive" and n_users > 1000:
        pytest.skip("naive loop is quadratic-ish in wall time; capped")
    index, probe, expected = _build(index_kind, n_users)
    result = benchmark(index.search, probe)
    assert result == [expected]


def test_search_is_negligible_next_to_signature(benchmark, capsys):
    """The claim behind 'constant': search cost << one signature round."""
    search_ms, crypto_ms = benchmark.pedantic(_measure_search_vs_sign,
                                              rounds=1, iterations=1)
    with capsys.disabled():
        _print_search_vs_sign(search_ms, crypto_ms)


def _measure_search_vs_sign():
    # Constructed directly (not via the benchmarks conftest): a bare
    # ``import conftest`` resolves to whichever suite's conftest pytest
    # loaded last once several test roots are collected together.
    from repro.crypto.dsa import Dsa
    from repro.crypto.dsa_groups import GROUP_1024

    index, probe, expected = _build("scan", 5000)
    reps = 20
    start = time.perf_counter()
    for _ in range(reps):
        assert index.search(probe) == [expected]
    search_ms = (time.perf_counter() - start) / reps * 1e3

    # The crypto constant per challenge: the device signs, the server
    # verifies (cache-cold — the conservative serving cost).
    scheme = Dsa(GROUP_1024)
    keypair = scheme.keygen_from_seed(b"R" * 32)
    signature = scheme.sign(keypair.signing_key, b"challenge")
    start = time.perf_counter()
    for _ in range(reps):
        scheme.sign(keypair.signing_key, b"challenge")
        assert scheme.verify(keypair.verify_key, b"challenge", signature)
    crypto_ms = (time.perf_counter() - start) / reps * 1e3
    return search_ms, crypto_ms


def _print_search_vs_sign(search_ms, crypto_ms):
    print("\n=== Sketch search vs one signature round "
          "(5000-user DB, n=1000) ===")
    print(f"scan search: {search_ms:.3f} ms   "
          f"DSA sign + verify: {crypto_ms:.3f} ms "
          f"(x{crypto_ms / search_ms:.0f})")
    assert search_ms < crypto_ms, (
        "sketch search should be cheaper than a signature round"
    )
