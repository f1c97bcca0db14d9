"""Benchmark: the scale-out engine's batch/sharded search vs per-probe loops.

The engine exists so protocol layers stop looping Python-side per
request.  This bench quantifies what that buys at serving-shaped database
sizes (N = 10k and 100k sketches), comparing:

* ``loop``    — B independent ``search`` calls on one shard (each a
  batch of one),
* ``batch``   — one ``search_batch`` bitmask-LUT pass on one shard,
* ``sharded`` — one ``ShardedSketchIndex.search_batch`` across 4 shards,

and asserts the acceptance floor: batch throughput >= 5x the
single-probe loop at N = 100k.  The workload uses a bench-sized dimension
(n = 128) so the 100k int16 index stays ~26 MB; the kernels' relative
cost is dimension-independent once past the first pruning chunk.

Set ``REPRO_BENCH_SMOKE=1`` (the CI bench-smoke job does) to run the
same assertions at reduced database sizes.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.params import SystemParams
from repro.engine.sharded import ShardedSketchIndex

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

DIMENSION = 128
N_PROBES = 64
DB_SIZES = [5_000] if SMOKE else [10_000, 100_000]
#: Database size for the batch-speedup acceptance floor.
FLOOR_RECORDS = 30_000 if SMOKE else 100_000

_built: dict[int, tuple] = {}


def _workload(params: SystemParams, n_records: int, seed: int):
    """Uniform enrolled sketches (what independent templates yield) and
    probes planted as within-``t`` ring perturbations of random rows, so
    every probe has at least one genuine hit."""
    rng = np.random.default_rng(seed)
    ka = params.interval_width
    half = ka // 2
    matrix = rng.integers(-half, half + 1, size=(n_records, params.n),
                          dtype=np.int64)
    targets = rng.integers(0, n_records, size=N_PROBES)
    noise = rng.integers(-params.t, params.t + 1,
                         size=(N_PROBES, params.n), dtype=np.int64)
    probes = (matrix[targets] + noise + half) % ka - half
    return matrix, probes


def _build(n_records: int):
    if n_records in _built:
        return _built[n_records]
    params = SystemParams.paper_defaults(n=DIMENSION)
    matrix, probes = _workload(params, n_records, seed=2017)
    flat = ShardedSketchIndex(params, shards=1)
    flat.add_many(matrix)
    sharded = ShardedSketchIndex(params, shards=4)
    sharded.add_many(matrix)
    flat.search(probes[0])            # warm ufunc dispatch
    flat.search_batch(probes[:1])
    sharded.search_batch(probes[:1])
    _built[n_records] = (flat, sharded, probes)
    return _built[n_records]


@pytest.mark.parametrize("n_records", DB_SIZES)
def test_bench_single_probe_loop(benchmark, n_records):
    flat, _, probes = _build(n_records)
    result = benchmark.pedantic(
        lambda: [flat.search(probe) for probe in probes],
        rounds=2, iterations=1,
    )
    assert sum(len(r) for r in result) >= N_PROBES  # every probe planted


@pytest.mark.parametrize("n_records", DB_SIZES)
def test_bench_batch_kernel(benchmark, n_records):
    flat, _, probes = _build(n_records)
    result = benchmark.pedantic(lambda: flat.search_batch(probes),
                                rounds=3, iterations=1)
    assert sum(len(r) for r in result) >= N_PROBES


@pytest.mark.parametrize("n_records", DB_SIZES)
def test_bench_sharded_batch(benchmark, n_records):
    _, sharded, probes = _build(n_records)
    result = benchmark.pedantic(lambda: sharded.search_batch(probes),
                                rounds=3, iterations=1)
    assert sum(len(r) for r in result) >= N_PROBES


def test_batch_is_5x_single_probe_loop_at_100k(benchmark):
    """Acceptance floor: batch >= 5x loop throughput at N = 100k.

    All three modes must return identical match sets, so the speedup
    can never come from a wrong answer.
    """
    flat, sharded, probes = _build(FLOOR_RECORDS)

    def timed(search):
        start = time.perf_counter()
        result = search()
        return time.perf_counter() - start, result

    def measure():
        return (timed(lambda: [flat.search(probe) for probe in probes]),
                timed(lambda: flat.search_batch(probes)),
                timed(lambda: sharded.search_batch(probes)))

    (loop_s, loop), (batch_s, batch), (_, by_shard) = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    assert batch == loop, "batch kernel disagrees with the probe loop"
    assert by_shard == loop, "sharded batch disagrees with the probe loop"
    speedup = loop_s / batch_s
    assert speedup >= 5.0, (
        f"batch search only x{speedup:.1f} over the single-probe loop; "
        f"the engine promises >= 5x at N={FLOOR_RECORDS}"
    )
