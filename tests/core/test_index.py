"""Tests for the sketch search structures (scan, prefix index, naive loop).

The scan index is ``ShardedSketchIndex(shards=1)``, the flat form of the
engine's index; its kernel reads a coordinate-major ``(n, N)`` array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import (
    NaiveLoopIndex,
    PrefixBucketIndex,
    batch_match_rows,
    movement_dtype,
)
from repro.core.matching import match_matrix
from repro.core.params import SystemParams
from repro.core.sketch import ChebyshevSketch
from repro.crypto.prng import HmacDrbg
from repro.engine.sharded import ShardedSketchIndex
from repro.exceptions import ParameterError


def _scan_index(params, chunk=8):
    """The flat scan index: one shard."""
    return ShardedSketchIndex(params, shards=1, chunk=chunk)


INDEX_FACTORIES = [
    pytest.param(lambda p: _scan_index(p), id="scan"),
    pytest.param(lambda p: PrefixBucketIndex(p, depth=3), id="prefix"),
    pytest.param(lambda p: NaiveLoopIndex(p), id="naive"),
]


def _population_sketches(params, n_users, seed=0):
    sk = ChebyshevSketch(params)
    rng = np.random.default_rng(seed)
    templates = [sk.line.uniform_vector(rng) for _ in range(n_users)]
    sketches = [
        sk.sketch(x, HmacDrbg(i.to_bytes(2, "big"))) for i, x in enumerate(templates)
    ]
    return sk, templates, sketches


@pytest.mark.parametrize("factory", INDEX_FACTORIES)
class TestSearchCorrectness:
    def test_finds_enrolled_user(self, factory, paper_params):
        sk, templates, sketches = _population_sketches(paper_params, 25)
        index = factory(paper_params)
        for s in sketches:
            index.add(s)
        rng = np.random.default_rng(99)
        target = 13
        noisy = sk.line.reduce(
            templates[target]
            + rng.integers(-paper_params.t, paper_params.t + 1, paper_params.n)
        )
        probe = sk.sketch(noisy, HmacDrbg(b"probe"))
        assert index.search(probe) == [target]

    def test_unknown_user_returns_empty(self, factory, paper_params):
        sk, _, sketches = _population_sketches(paper_params, 25)
        index = factory(paper_params)
        for s in sketches:
            index.add(s)
        rng = np.random.default_rng(7)
        probe = sk.sketch(sk.line.uniform_vector(rng), HmacDrbg(b"imp"))
        assert index.search(probe) == []

    def test_empty_index_returns_empty(self, factory, paper_params):
        index = factory(paper_params)
        probe = np.zeros(paper_params.n, dtype=np.int64)
        assert index.search(probe) == []

    def test_add_returns_sequential_ids(self, factory, paper_params):
        _, _, sketches = _population_sketches(paper_params, 5)
        index = factory(paper_params)
        assert [index.add(s) for s in sketches] == [0, 1, 2, 3, 4]
        assert len(index) == 5

    def test_rejects_wrong_shape(self, factory, paper_params):
        index = factory(paper_params)
        with pytest.raises(ParameterError):
            index.add(np.zeros(3, dtype=np.int64))
        with pytest.raises(ParameterError):
            index.search(np.zeros(3, dtype=np.int64))

    def test_add_many_equals_sequential_adds(self, factory, paper_params):
        """Bulk insertion must be indistinguishable from looping add()."""
        sk, templates, sketches = _population_sketches(paper_params, 12)
        bulk = factory(paper_params)
        serial = factory(paper_params)
        assert bulk.add_many(np.stack(sketches)) == list(range(12))
        for s in sketches:
            serial.add(s)
        assert len(bulk) == len(serial) == 12
        probe = sk.sketch(templates[7], HmacDrbg(b"bulk"))
        assert bulk.search(probe) == serial.search(probe) == [7]

    def test_add_many_empty_batch(self, factory, paper_params):
        index = factory(paper_params)
        assert index.add_many(np.empty((0, paper_params.n), dtype=np.int64)) \
            == []
        assert len(index) == 0

    def test_add_many_rejects_wrong_shape(self, factory, paper_params):
        index = factory(paper_params)
        with pytest.raises(ParameterError):
            index.add_many(np.zeros((2, 3), dtype=np.int64))

    def test_duplicate_templates_both_found(self, factory, paper_params):
        """Two users enrolled from identical templates: both must surface."""
        sk, templates, _ = _population_sketches(paper_params, 1)
        index = factory(paper_params)
        s0 = sk.sketch(templates[0], HmacDrbg(b"e0"))
        s1 = sk.sketch(templates[0], HmacDrbg(b"e1"))
        index.add(s0)
        index.add(s1)
        probe = sk.sketch(templates[0], HmacDrbg(b"pr"))
        assert index.search(probe) == [0, 1]


class TestAgreementProperty:
    @given(seed=st.integers(0, 1000), n_users=st.integers(1, 30))
    @settings(max_examples=30)
    def test_all_indexes_agree_with_match_matrix(self, seed, n_users):
        params = SystemParams(a=5, k=4, v=8, t=4, n=6)
        rng = np.random.default_rng(seed)
        half = params.interval_width // 2
        enrolled = rng.integers(-half, half + 1, size=(n_users, params.n))
        probe = rng.integers(-half, half + 1, size=params.n)

        expected = np.nonzero(match_matrix(enrolled, probe, params))[0].tolist()
        for factory in (lambda p: _scan_index(p),
                        lambda p: PrefixBucketIndex(p, depth=3),
                        lambda p: NaiveLoopIndex(p)):
            index = factory(params)
            for row in enrolled:
                index.add(row)
            assert index.search(probe) == expected


class TestBatchSearch:
    @given(seed=st.integers(0, 1000), n_users=st.integers(0, 30),
           n_probes=st.integers(0, 8))
    @settings(max_examples=30)
    def test_search_batch_agrees_with_match_matrix(self, seed, n_users,
                                                   n_probes):
        params = SystemParams(a=5, k=4, v=8, t=4, n=6)
        rng = np.random.default_rng(seed)
        half = params.interval_width // 2
        enrolled = rng.integers(-half, half + 1, size=(n_users, params.n))
        probes = rng.integers(-half, half + 1, size=(n_probes, params.n))
        index = _scan_index(params)
        if n_users:
            index.add_many(enrolled)
        expected = [
            np.nonzero(match_matrix(enrolled, probe, params))[0].tolist()
            if n_users else []
            for probe in probes
        ]
        assert index.search_batch(probes) == expected

    def test_search_batch_rejects_out_of_range(self, small_params):
        index = _scan_index(small_params)
        bad = np.full((1, small_params.n), small_params.interval_width)
        with pytest.raises(ParameterError, match="movements"):
            index.search_batch(bad)

    def test_lut_group_loop_exercised_above_pair_threshold(self):
        """N > pair_threshold keeps the bitmask-LUT group loop active
        (the benchmark-scale regime), not just the per-probe tail."""
        params = SystemParams(a=5, k=4, v=8, t=4, n=6)
        rng = np.random.default_rng(123)
        half = params.interval_width // 2
        enrolled = rng.integers(-half, half + 1, size=(2500, params.n))
        probes = rng.integers(-half, half + 1, size=(5, params.n))
        index = _scan_index(params)
        index.add_many(enrolled)
        expected = [
            np.nonzero(match_matrix(enrolled, probe, params))[0].tolist()
            for probe in probes
        ]
        assert index.search_batch(probes) == expected

    @given(seed=st.integers(0, 300), n_users=st.integers(1, 60))
    @settings(max_examples=25)
    def test_kernel_pair_threshold_extremes_agree(self, seed, n_users):
        """pair_threshold=0 (pure LUT) and huge (pure per-probe tail)
        must produce identical match sets."""
        params = SystemParams(a=5, k=4, v=8, t=4, n=6)
        rng = np.random.default_rng(seed)
        half = params.interval_width // 2
        enrolled = rng.integers(-half, half + 1, size=(n_users, params.n))
        columns = np.ascontiguousarray(enrolled.T, dtype=np.int16)
        probes = rng.integers(-half, half + 1, size=(6, params.n))
        ka, t = params.interval_width, params.t
        pure_lut = batch_match_rows(columns, probes, ka, t, chunk=3,
                                    pair_threshold=0)
        pure_scan = batch_match_rows(columns, probes, ka, t, chunk=3,
                                     pair_threshold=10 ** 9)
        expected = [
            np.nonzero(match_matrix(enrolled, probe, params))[0]
            for probe in probes
        ]
        for a, b, e in zip(pure_lut, pure_scan, expected):
            assert np.array_equal(a, e) and np.array_equal(b, e)


class TestScanInternals:
    def test_grows_past_initial_capacity(self, small_params):
        index = _scan_index(small_params)
        for i in range(300):
            index.add(np.full(small_params.n, 3 * (i % 3) - 3))
        assert len(index) == 300
        assert index.search(np.full(small_params.n, 3)) == \
            list(range(2, 300, 3))

    def test_chunk_one_works(self, paper_params):
        sk, templates, sketches = _population_sketches(paper_params, 10)
        index = _scan_index(paper_params, chunk=1)
        for s in sketches:
            index.add(s)
        probe = sk.sketch(templates[4], HmacDrbg(b"c1"))
        assert index.search(probe) == [4]

    def test_rejects_zero_chunk(self, paper_params):
        with pytest.raises(ParameterError, match="chunk"):
            _scan_index(paper_params, chunk=0)


class TestPrefixInternals:
    def test_rejects_bad_depth(self, small_params):
        with pytest.raises(ParameterError, match="depth"):
            PrefixBucketIndex(small_params, depth=0)
        with pytest.raises(ParameterError, match="depth"):
            PrefixBucketIndex(small_params, depth=small_params.n + 1)

    def test_depth_equal_to_n_works(self):
        params = SystemParams(a=5, k=4, v=8, t=4, n=4)
        index = PrefixBucketIndex(params, depth=params.n)
        sk = ChebyshevSketch(params)
        rng = np.random.default_rng(0)
        x = sk.line.uniform_vector(rng)
        index.add(sk.sketch(x, HmacDrbg(b"x")))
        probe = sk.sketch(x, HmacDrbg(b"y"))
        assert index.search(probe) == [0]
