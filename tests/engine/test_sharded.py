"""Parity and behaviour tests for the sharded sketch index.

The engine's headline guarantee is that sharding and batching are pure
performance moves: every search mode returns *exactly* the match sets of
the naive per-record loop, for any shard count.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import index as index_module
from repro.core.extractor import HelperData
from repro.core.index import NaiveLoopIndex, VectorizedScanIndex
from repro.core.params import SystemParams
from repro.engine import IdentificationEngine
from repro.engine import sharded as sharded_module
from repro.engine.sharded import ShardedSketchIndex
from repro.exceptions import ParameterError
from repro.protocols.database import UserRecord

SHARD_COUNTS = [1, 2, 7]

SMALL = SystemParams(a=5, k=4, v=8, t=4, n=6)


def _random_population(params, n_users, seed):
    rng = np.random.default_rng(seed)
    half = params.interval_width // 2
    enrolled = rng.integers(-half, half + 1, size=(n_users, params.n))
    probes = rng.integers(-half, half + 1, size=(8, params.n))
    return enrolled, probes


class TestShardedParity:
    """`ShardedSketchIndex` vs `NaiveLoopIndex`, the satellite property."""

    @given(seed=st.integers(0, 1000), n_users=st.integers(0, 40),
           shards=st.sampled_from(SHARD_COUNTS))
    @settings(max_examples=40)
    def test_search_and_batch_match_naive_loop(self, seed, n_users, shards):
        enrolled, probes = _random_population(SMALL, n_users, seed)
        naive = NaiveLoopIndex(SMALL)
        sharded = ShardedSketchIndex(SMALL, shards=shards)
        if n_users:
            naive.add_many(enrolled)
            sharded.add_many(enrolled)
        expected = [naive.search(probe) for probe in probes]
        assert [sharded.search(probe) for probe in probes] == expected
        assert sharded.search_batch(probes) == expected

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_empty_index_all_modes(self, shards):
        index = ShardedSketchIndex(SMALL, shards=shards)
        probe = np.zeros(SMALL.n, dtype=np.int64)
        assert index.search(probe) == []
        assert index.search_batch(probe.reshape(1, -1)) == [[]]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_empty_probe_batch(self, shards):
        index = ShardedSketchIndex(SMALL, shards=shards)
        index.add(np.zeros(SMALL.n, dtype=np.int64))
        assert index.search_batch(np.empty((0, SMALL.n), dtype=np.int64)) == []

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_boundary_probes(self, shards):
        """Probes/sketches pinned at the +-ka/2 range boundary still agree
        (the two spellings of the same ring point must match)."""
        half = SMALL.interval_width // 2
        enrolled = np.array([
            [half] * SMALL.n,
            [-half] * SMALL.n,
            [0] * SMALL.n,
        ])
        naive = NaiveLoopIndex(SMALL)
        sharded = ShardedSketchIndex(SMALL, shards=shards)
        naive.add_many(enrolled)
        sharded.add_many(enrolled)
        probes = np.array([[half] * SMALL.n, [-half] * SMALL.n])
        expected = [naive.search(probe) for probe in probes]
        assert sharded.search_batch(probes) == expected
        # +half and -half are the same ring point: both rows must surface.
        assert expected[0] == [0, 1]

    def test_worker_pool_matches_serial(self):
        enrolled, probes = _random_population(SMALL, 60, seed=7)
        serial = ShardedSketchIndex(SMALL, shards=4)
        parallel = ShardedSketchIndex(SMALL, shards=4, workers=4)
        serial.add_many(enrolled)
        parallel.add_many(enrolled)
        try:
            assert parallel.search_batch(probes) == serial.search_batch(probes)
            for probe in probes:
                assert parallel.search(probe) == serial.search(probe)
        finally:
            parallel.close()


class TestShardedBehaviour:
    def test_global_ids_are_enrollment_order(self):
        enrolled, _ = _random_population(SMALL, 20, seed=3)
        index = ShardedSketchIndex(SMALL, shards=3)
        assert index.add_many(enrolled) == list(range(20))
        assert index.add(enrolled[0]) == 20
        assert len(index) == 21

    def test_hash_partition_is_content_stable(self):
        """The same sketch lands in the same shard regardless of history."""
        enrolled, _ = _random_population(SMALL, 30, seed=5)
        a = ShardedSketchIndex(SMALL, shards=4)
        b = ShardedSketchIndex(SMALL, shards=4)
        a.add_many(enrolled)
        for row in enrolled[::-1]:  # reversed insertion order
            b.add(row)
        sizes_a = sorted(a.shard_sizes())
        sizes_b = sorted(b.shard_sizes())
        assert sizes_a == sizes_b
        assert sum(sizes_a) == 30

    def test_all_shards_used_at_scale(self):
        enrolled, _ = _random_population(SMALL, 200, seed=11)
        index = ShardedSketchIndex(SMALL, shards=4)
        index.add_many(enrolled)
        assert all(size > 0 for size in index.shard_sizes())

    def test_rejects_bad_construction(self):
        with pytest.raises(ParameterError, match="shards"):
            ShardedSketchIndex(SMALL, shards=0)
        with pytest.raises(ParameterError, match="chunk"):
            ShardedSketchIndex(SMALL, chunk=0)
        with pytest.raises(ParameterError, match="workers"):
            ShardedSketchIndex(SMALL, workers=0)

    def test_rejects_wrong_shapes_and_range(self):
        index = ShardedSketchIndex(SMALL, shards=2)
        with pytest.raises(ParameterError):
            index.add(np.zeros(3, dtype=np.int64))
        with pytest.raises(ParameterError):
            index.add_many(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ParameterError):
            index.search(np.zeros(3, dtype=np.int64))
        with pytest.raises(ParameterError):
            index.search_batch(np.zeros((2, 3), dtype=np.int64))
        too_big = np.full(SMALL.n, SMALL.interval_width, dtype=np.int64)
        with pytest.raises(ParameterError, match="movements"):
            index.add(too_big)


class TestBatchKernelAgreement:
    """`VectorizedScanIndex.search_batch` is the shard kernel's flat twin."""

    @given(seed=st.integers(0, 500), n_users=st.integers(0, 40),
           n_probes=st.integers(0, 6))
    @settings(max_examples=40)
    def test_flat_batch_matches_per_probe_search(self, seed, n_users,
                                                 n_probes):
        rng = np.random.default_rng(seed)
        half = SMALL.interval_width // 2
        enrolled = rng.integers(-half, half + 1, size=(n_users, SMALL.n))
        probes = rng.integers(-half, half + 1, size=(n_probes, SMALL.n))
        index = VectorizedScanIndex(SMALL)
        if n_users:
            index.add_many(enrolled)
        expected = [index.search(probe) for probe in probes]
        assert index.search_batch(probes) == expected

    def test_batch_larger_than_bitmask_group(self):
        """> 64 probes forces multiple uint64 groups."""
        rng = np.random.default_rng(42)
        half = SMALL.interval_width // 2
        enrolled = rng.integers(-half, half + 1, size=(50, SMALL.n))
        probes = rng.integers(-half, half + 1, size=(130, SMALL.n))
        index = ShardedSketchIndex(SMALL, shards=2)
        index.add_many(enrolled)
        flat = VectorizedScanIndex(SMALL)
        flat.add_many(enrolled)
        expected = [flat.search(probe) for probe in probes]
        assert index.search_batch(probes) == expected
        assert flat.search_batch(probes) == expected


def _count_lut_builds(monkeypatch) -> list:
    """Route every LUT build through a counter; returns the call log."""
    calls = []
    build = index_module.group_luts

    def counted(probes, ka, t):
        calls.append(probes.shape[0])
        return build(probes, ka, t)

    monkeypatch.setattr(index_module, "group_luts", counted)
    monkeypatch.setattr(sharded_module, "group_luts", counted)
    return calls


class TestLutsPerBatch:
    def test_tables_built_once_per_batch_not_per_shard(self, monkeypatch):
        """Four shards that each enter the LUT phase share one build."""
        rows_per_shard = index_module.PAIR_THRESHOLD + 500
        enrolled, probes = _random_population(SMALL, 4 * rows_per_shard, 9)
        index = ShardedSketchIndex(SMALL, shards=4, chunk=2)
        index.add_many(enrolled)
        assert min(index.shard_sizes()) > index_module.PAIR_THRESHOLD
        flat = VectorizedScanIndex(SMALL)
        flat.add_many(enrolled)
        expected = [flat.search(probe) for probe in probes]
        calls = _count_lut_builds(monkeypatch)
        assert index.search_batch(probes) == expected
        assert calls == [len(probes)]

    def test_small_shards_build_no_tables(self, monkeypatch):
        """Below the LUT gate (the identify-1k regime) nothing is built."""
        enrolled, probes = _random_population(SMALL, 1000, 4)
        index = ShardedSketchIndex(SMALL, shards=4)
        index.add_many(enrolled)
        calls = _count_lut_builds(monkeypatch)
        index.search_batch(probes)
        assert calls == []


def _wrap_edge_population(params, seed):
    """Probes on or next to +-ka/2 and 0, with rows at ring distance
    exactly t (must match) and t+1 on one coordinate (must not) across
    the movement wrap at +-ka/2 and the LUT wrap at ring position 0.

    Returns ``(rows, probes, near, far)``; ``near[b]``/``far[b]`` are the
    row ids built to match/miss probe ``b``.
    """
    ka, t, n = params.interval_width, params.t, params.n
    half = ka // 2
    rng = np.random.default_rng(seed)
    probes = rng.choice([-half, half, 1 - half, half - 1, -1, 0, 1],
                        size=(6, n))
    rows, near, far = [], [], []
    for probe in probes:
        signs = rng.choice([-1, 1], size=(4, n))
        matches = probe + signs * t
        misses = matches.copy()
        which, cols = np.arange(4), rng.integers(0, n, 4)
        misses[which, cols] += signs[which, cols]   # one coordinate at t+1
        near.append(range(len(rows), len(rows) + 5))
        rows.extend([probe, *matches])
        far.append(range(len(rows), len(rows) + 4))
        rows.extend(misses)
    rows = (np.array(rows) + half) % ka - half     # back into [-ka/2, ka/2)
    flip = (rows == -half) & (rng.random(rows.shape) < 0.5)
    rows[flip] = half                              # the other name of -ka/2
    return rows, probes, near, far


@pytest.fixture
def pure_lut(monkeypatch):
    """Every batch scan stays in the LUT phase to the last coordinate
    (``pair_threshold=0``); returns the LUT build log."""
    kernel = partial(index_module.batch_match_rows, pair_threshold=0)
    monkeypatch.setattr(index_module, "batch_match_rows", kernel)
    monkeypatch.setattr(sharded_module, "batch_match_rows", kernel)
    monkeypatch.setattr(sharded_module, "uses_luts",
                        partial(index_module.uses_luts, pair_threshold=0))
    return _count_lut_builds(monkeypatch)


class TestModuloFreeGather:
    """Raw negative movements index the LUTs exactly as ``v % ka`` would."""

    @pytest.fixture
    def population(self):
        rows, probes, near, far = _wrap_edge_population(SMALL, seed=5)
        naive = NaiveLoopIndex(SMALL)
        naive.add_many(rows)
        expected = [naive.search(probe) for probe in probes]
        for hits, built_near, built_far in zip(expected, near, far):
            assert set(built_near) <= set(hits)
            assert not set(built_far) & set(hits)
        return rows, probes, expected

    def test_flat_index(self, population, pure_lut):
        rows, probes, expected = population
        index = VectorizedScanIndex(SMALL)
        index.add_many(rows)
        assert index.search_batch(probes) == expected
        assert pure_lut

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_sharded_index(self, population, pure_lut, shards, workers):
        rows, probes, expected = population
        index = ShardedSketchIndex(SMALL, shards=shards, workers=workers)
        index.add_many(rows)
        try:
            assert index.search_batch(probes) == expected
        finally:
            index.close()
        assert pure_lut == [len(probes)]

    def test_engine_opened_from_store(self, population, pure_lut, tmp_path):
        rows, probes, expected = population
        engine = IdentificationEngine(SMALL, shards=4)
        engine.add_many([
            UserRecord(f"edge-{i}", b"", HelperData(
                movements=row, tag=b"", seed=b"").to_bytes())
            for i, row in enumerate(rows)])
        engine.save(tmp_path / "store")
        engine.close()
        opened = IdentificationEngine.open(tmp_path / "store")
        try:
            matrices = [m for m, _ in opened._index.shard_parts()]
            assert not any(m.flags.writeable for m in matrices)
            assert opened.search_batch(probes) == expected
        finally:
            opened.close()
        assert pure_lut == [len(probes)]
