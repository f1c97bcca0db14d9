"""Table II reproduction: implementation parameters and security figures.

Paper (Table II, Section VII)::

    a = 100, k = 4, v = 500, t = 100, n = 1000..31000
    Rep. Range  [-100000, 100000]
    m~ ~ 44,829 bits   (n = 5000)
    Storage ~ 45,000 bits  (n = 5000)
    Random Extractor: SHA256
    Signature: DSA

This bench prints every row next to our measured/computed value and
benchmarks the n=5000 primitives the table is parameterised around.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.security import security_report
from repro.core.extractor import SuccinctFuzzyExtractor
from repro.core.params import SystemParams
from repro.crypto.prng import HmacDrbg

PAPER_RESIDUAL_BITS = 44_829
PAPER_STORAGE_BITS = 45_000


@pytest.fixture(scope="module")
def params():
    return SystemParams.paper_defaults(n=5000)


@pytest.fixture(scope="module")
def fe(params):
    return SuccinctFuzzyExtractor(params)


@pytest.fixture(scope="module")
def template(params, bench_rng):
    return bench_rng.integers(-params.half_range, params.half_range,
                              size=params.n, dtype=np.int64)


class TestTable2Rows:
    def test_print_table2(self, benchmark, params, capsys):
        report = benchmark.pedantic(security_report, args=(params,),
                                    rounds=1, iterations=1)
        rows = dict(report.rows())
        lines = [
            "",
            "=== Table II: implementation parameters (paper vs this repo) ===",
            f"{'row':<28}{'paper':>22}{'ours':>22}",
            f"{'a':<28}{'100':>22}{rows['a']:>22}",
            f"{'k':<28}{'4':>22}{rows['k']:>22}",
            f"{'v':<28}{'500':>22}{rows['v']:>22}",
            f"{'t':<28}{'100':>22}{rows['t']:>22}",
            f"{'n':<28}{'1000-31000':>22}{'5000 (swept in fig4)':>22}",
            f"{'Rep. Range':<28}{'[-100000, 100000]':>22}"
            f"{rows['Rep. Range']:>22}",
            f"{'m~ (residual entropy)':<28}{'~44,829 bits':>22}"
            f"{rows['m~ (residual)']:>22}",
            f"{'Storage':<28}{'~45,000 bits':>22}{rows['storage']:>22}",
            f"{'Random Extractor':<28}{'SHA256':>22}{'SHA256':>22}",
            f"{'Signature':<28}{'DSA':>22}{'DSA-1024':>22}",
            f"{'false-close bound':<28}{'negligible':>22}"
            f"{dict(report.rows())['false-close bound']:>22}",
        ]
        with capsys.disabled():
            print("\n".join(lines))
        # Assertions: the quantitative rows must match the paper.
        assert report.residual_entropy_bits == pytest.approx(
            PAPER_RESIDUAL_BITS, abs=1.0
        )
        assert report.storage_bits == pytest.approx(
            PAPER_STORAGE_BITS, rel=0.05
        )

    def test_sketch_wire_size_matches_information_bound(self, benchmark,
                                                        fe, template):
        """The serialised sketch is within a small factor of the
        information-theoretic n*log2(ka+1) bound (the wire spends two
        bytes per movement at ka = 400, about 1.85x the bound; the bound
        is what Table II reports)."""
        _, helper = benchmark.pedantic(fe.generate,
                                       args=(template, HmacDrbg(b"t2")),
                                       rounds=1, iterations=1)
        wire_bits = 8 * helper.storage_bytes()
        bound_bits = fe.params.storage_bits
        assert bound_bits < wire_bits < 2 * bound_bits


class TestTable2Primitives:
    """The primitive costs behind the table's n=5000 configuration."""

    def test_bench_gen_n5000(self, benchmark, fe, template):
        benchmark(fe.generate, template, HmacDrbg(b"bench"))

    def test_bench_rep_n5000(self, benchmark, fe, template, params, bench_rng):
        _, helper = fe.generate(template, HmacDrbg(b"bench"))
        noisy = (template + bench_rng.integers(
            -params.t, params.t + 1, size=params.n))
        noisy = fe.sketcher.line.reduce(noisy)
        result = benchmark(fe.reproduce, noisy, helper)
        assert result == fe.generate(template, HmacDrbg(b"bench"))[0]

    def test_bench_sketch_only_n5000(self, benchmark, fe, template):
        benchmark(fe.sketcher.sketch, template, HmacDrbg(b"bench"))

    def test_bench_recover_only_n5000(self, benchmark, fe, template):
        sketch = fe.sketcher.sketch(template, HmacDrbg(b"bench"))
        benchmark(fe.sketcher.recover, template, sketch)
