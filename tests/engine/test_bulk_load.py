"""Bulk-load memory bound, group decode parity and validate-before-
write-ahead regressions.

``IdentificationEngine.add_many`` decodes helper data in fixed-size
groups into one matrix at the index dtype and validates it before the
first journal write; ``add``, ``reenroll``, ``rotate`` and a follower's
``apply_replicated`` validate before theirs.  A refused record must
leave the engine and its journal untouched, or the journal stops
replaying.  The one-pass group decode must accept and refuse exactly
the blobs ``HelperData.from_bytes`` does, one by one.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.extractor import HelperData, decode_movement_rows
from repro.core.params import SystemParams
from repro.core.index import _as_movement_matrix, movement_dtype
from repro.engine import IdentificationEngine
from repro.engine import engine as engine_module
from repro.engine import sharded as sharded_module
from repro.engine.journal import EnrollmentJournal
from repro.engine.lifecycle import (
    OP_ENROLL,
    OP_REENROLL,
    encode_record_entry,
    encode_revoke_entry,
)
from repro.engine.sharded import ShardedSketchIndex
from repro.exceptions import EnrollmentError, ParameterError, ReplicationError
from repro.protocols.database import UserRecord

INT64_MIN = np.iinfo(np.int64).min


def _record(user_id: str, movements) -> UserRecord:
    helper = HelperData(movements=np.asarray(movements, dtype=np.int64),
                        tag=b"", seed=b"")
    return UserRecord(user_id=user_id, verify_key=b"vk",
                      helper_data=helper.to_bytes())


def _half(params: SystemParams) -> int:
    return params.interval_width // 2


def _uniform_records(params: SystemParams, count: int, seed: int = 7,
                     tag: str = "user") -> list[UserRecord]:
    half = _half(params)
    movements = np.random.default_rng(seed).integers(
        -half, half + 1, size=(count, params.n), dtype=np.int64)
    return [_record(f"{tag}-{i}", row) for i, row in enumerate(movements)]


def _with_first(params: SystemParams, value: int) -> np.ndarray:
    movements = np.zeros(params.n, dtype=np.int64)
    movements[0] = value
    return movements


class TestBulkLoadMemory:
    def test_add_many_peak_is_bounded_by_the_int32_matrix(self):
        params = SystemParams.paper_defaults(n=128)
        records = _uniform_records(params, 20_000)
        matrix_bytes = len(records) * params.n * np.dtype(np.int32).itemsize
        engine = IdentificationEngine(params, shards=4)
        tracemalloc.start()
        try:
            engine.add_many(records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * matrix_bytes, \
            f"add_many peaked at {peak / matrix_bytes:.1f}x the int32 matrix"

        one_by_one = IdentificationEngine(params, shards=4)
        for record in records:
            one_by_one.add(record)
        assert engine.stats().shard_sizes == one_by_one.stats().shard_sizes
        for (matrix, rows), (ref_matrix, ref_rows) in zip(
                engine._index.shard_parts(), one_by_one._index.shard_parts()):
            np.testing.assert_array_equal(rows, ref_rows)
            np.testing.assert_array_equal(matrix, ref_matrix)


class TestChunkBoundaries:
    """Decode groups and hash chunks must not change what is loaded."""

    def test_decode_groups_match_a_single_stack(self, paper_params,
                                                monkeypatch):
        records = _uniform_records(paper_params, 11)
        monkeypatch.setattr(engine_module, "_DECODE_GROUP", 4)
        matrix = engine_module._decode_movements(paper_params, records)
        assert matrix.dtype == movement_dtype(paper_params) == np.int16
        np.testing.assert_array_equal(
            matrix, np.stack([r.helper().movements for r in records]))

    def test_bad_record_in_a_later_group_refuses_the_batch(
            self, paper_params, monkeypatch):
        monkeypatch.setattr(engine_module, "_DECODE_GROUP", 4)
        engine = IdentificationEngine(paper_params, shards=2)
        batch = _uniform_records(paper_params, 9) + [
            _record("high", _with_first(paper_params, _half(paper_params) + 1))]
        with pytest.raises(ParameterError, match="must lie in"):
            engine.add_many(batch)
        assert len(engine) == 0
        assert sum(engine.stats().shard_sizes) == 0

    def test_hash_chunks_match_one_pass(self, paper_params, monkeypatch):
        block = _as_movement_matrix(paper_params, np.stack(
            [r.helper().movements
             for r in _uniform_records(paper_params, 23)]), "sketches")
        index = ShardedSketchIndex(paper_params, shards=3)
        one_pass = index._shard_of(block)
        monkeypatch.setattr(sharded_module, "_HASH_ROWS", 5)
        np.testing.assert_array_equal(index._shard_of(block), one_pass)
        assert set(one_pass.tolist()) <= {0, 1, 2}

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_narrow_matrix_is_checked_in_place(self, paper_params, dtype):
        matrix = np.zeros((3, paper_params.n), dtype=dtype)
        assert _as_movement_matrix(paper_params, matrix, "sketches") \
            is matrix
        widened = _as_movement_matrix(paper_params,
                                      matrix.astype(np.int64), "sketches")
        assert widened.dtype == np.int32
        np.testing.assert_array_equal(widened, matrix)


def _blob_by_blob(blobs: list[bytes], n: int):
    """What :func:`decode_movement_rows` must match: the stack of
    ``from_bytes`` results, or the first error in blob order."""
    rows = []
    for blob in blobs:
        try:
            movements = HelperData.from_bytes(blob).movements
        except ParameterError as exc:
            return str(exc)
        if movements.shape != (n,):
            return f"sketch must have shape ({n},), got {movements.shape}"
        rows.append(movements.tolist())
    return rows


def _group_outcome(blobs: list[bytes], n: int):
    try:
        return decode_movement_rows(blobs, n).tolist()
    except ParameterError as exc:
        return str(exc)


def _legacy_blob(movements, tag: bytes = b"", seed: bytes = b"") -> bytes:
    body = np.asarray(movements, dtype=">i8").tobytes()
    return b"".join([len(body).to_bytes(8, "big"), body,
                     len(tag).to_bytes(2, "big"), tag,
                     len(seed).to_bytes(2, "big"), seed])


class TestGroupDecodeParity:
    """The one-pass group decode accepts and refuses exactly what
    ``HelperData.from_bytes`` blob by blob does."""

    def test_uniform_group_takes_the_one_pass_path(self, paper_params,
                                                   monkeypatch):
        blobs = [r.helper_data for r in _uniform_records(paper_params, 9)]
        calls = []
        original = HelperData.from_bytes.__func__
        monkeypatch.setattr(HelperData, "from_bytes", classmethod(
            lambda cls, data: calls.append(1) or original(cls, data)))
        rows = decode_movement_rows(blobs, paper_params.n)
        assert len(calls) == 1  # the first blob only
        monkeypatch.undo()
        assert rows.tolist() == _blob_by_blob(blobs, paper_params.n)

    def test_mixed_widths_layouts_and_headers(self):
        rng = np.random.default_rng(5)
        n = 8
        blobs = []
        for i in range(24):
            scale = (100, 200, 40_000, 2 ** 40)[i % 4]
            row = rng.integers(-scale, scale + 1, size=n)
            tag = b"t" * (i % 3)
            seed = b"s" * (2 - i % 3)  # same total length, other header
            if i % 5 == 0:
                blobs.append(_legacy_blob(row, tag, seed))
            else:
                blobs.append(HelperData(movements=row, tag=tag,
                                        seed=seed).to_bytes())
        expected = _blob_by_blob(blobs, n)
        assert isinstance(expected, list)
        assert _group_outcome(blobs, n) == expected

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda row: b"\x02" + HelperData(
            movements=row, tag=b"", seed=b"").to_bytes()[1:], id="layout"),
        pytest.param(lambda row: HelperData(
            movements=row, tag=b"", seed=b"").to_bytes()[:9] + b"\x03"
            + HelperData(movements=row, tag=b"", seed=b"").to_bytes()[10:],
            id="width-3"),
        pytest.param(lambda row: b"\x01\x00\x00\x00\x00"
            + (1 + 2 * row.size).to_bytes(4, "big") + b"\x02"
            + (row % 100).astype(">i2").tobytes(), id="non-canonical"),
        pytest.param(lambda row: b"\x01\x00\x00\x00\x00"
            + (2 * row.size).to_bytes(4, "big") + b"\x02"
            + row.astype(">i2").tobytes(), id="vector-length"),
        pytest.param(lambda row: HelperData(
            movements=row[:-1], tag=b"", seed=b"").to_bytes() + b"\x00\x00",
            id="wrong-count"),
    ])
    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_a_bad_blob_anywhere_gives_the_blob_by_blob_error(self, bad, at):
        n = 6
        rows = np.random.default_rng(at).integers(-200, 201, size=(8, n))
        rows[:, 0] = 200  # every row needs two bytes: a uniform group
        blobs = [HelperData(movements=row, tag=b"", seed=b"").to_bytes()
                 for row in rows]
        blobs[at] = bad(rows[at])
        expected = _blob_by_blob(blobs, n)
        assert isinstance(expected, str)
        assert _group_outcome(blobs, n) == expected

    @given(st.lists(st.lists(st.integers(-200, 200), min_size=5,
                             max_size=5), min_size=1, max_size=6),
           st.integers(0, 10 ** 9), st.sampled_from([0x01, 0x80, 0xFF]))
    def test_any_single_byte_mutation(self, rows, pick, flip):
        rows = np.array(rows, dtype=np.int64)
        rows[:, 0] = 200
        blobs = [HelperData(movements=row, tag=b"tt", seed=b"s").to_bytes()
                 for row in rows]
        victim = pick % len(blobs)
        mutated = bytearray(blobs[victim])
        mutated[pick % len(mutated)] ^= flip
        blobs[victim] = bytes(mutated)
        assert _group_outcome(blobs, 5) == _blob_by_blob(blobs, 5)


class TestInt64MinMovement:
    """``abs(-2**63)`` is negative, so an ``abs``-based range check let
    it through and the int32 narrowing stored it as 0."""

    def test_add_refuses_int64_min(self, paper_params):
        engine = IdentificationEngine(paper_params, shards=2)
        with pytest.raises(ParameterError, match="must lie in"):
            engine.add(_record("low", _with_first(paper_params, INT64_MIN)))
        assert len(engine) == 0
        zeros = np.zeros((1, paper_params.n), dtype=np.int64)
        assert engine.search_batch(zeros) == [[]]

    def test_add_many_refuses_int64_min(self, paper_params):
        engine = IdentificationEngine(paper_params, shards=2)
        batch = _uniform_records(paper_params, 3) + [
            _record("low", _with_first(paper_params, INT64_MIN))]
        with pytest.raises(ParameterError, match="must lie in"):
            engine.add_many(batch)
        assert len(engine) == 0

    def test_search_batch_refuses_int64_min_probe(self, paper_params):
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add(_record("zero", np.zeros(paper_params.n, dtype=np.int64)))
        probes = np.zeros((2, paper_params.n), dtype=np.int64)
        probes[1, 0] = INT64_MIN
        with pytest.raises(ParameterError, match="must lie in"):
            engine.search_batch(probes)
        assert engine.search_batch(probes[:1]) == [[0]]


#: The last record of a batch whose first three records are fine.
_BAD_LAST_RECORDS = [
    pytest.param(lambda p: _record("old-0", _with_first(p, 0)),
                 id="duplicate-of-enrolled"),
    pytest.param(lambda p: _record("new-0", _with_first(p, 0)),
                 id="duplicate-in-batch"),
    pytest.param(lambda p: UserRecord(user_id="junk", verify_key=b"vk",
                                      helper_data=b"\x00junk"),
                 id="malformed-blob"),
    pytest.param(lambda p: _record("short", np.zeros(p.n - 1, np.int64)),
                 id="wrong-shape"),
    pytest.param(lambda p: _record("high", _with_first(p, _half(p) + 1)),
                 id="above-range"),
    pytest.param(lambda p: _record("low", _with_first(p, -_half(p) - 1)),
                 id="below-range"),
    pytest.param(lambda p: _record("min", _with_first(p, INT64_MIN)),
                 id="int64-min"),
]


class TestRefusedWritesLeaveTheJournalReplayable:
    @pytest.fixture
    def journaled(self, tmp_path, paper_params):
        path = tmp_path / "journal.log"
        engine = IdentificationEngine(paper_params, shards=2, journal=path)
        engine.add_many(_uniform_records(paper_params, 2, tag="old"))
        yield engine, path
        engine.close()

    @staticmethod
    def _assert_unchanged(engine, path, params, size):
        assert len(engine) == engine.journal_seq() == size
        engine.close()
        reopened = IdentificationEngine(
            params, shards=2, journal=EnrollmentJournal(path))
        assert len(reopened) == reopened.journal_seq() == size
        reopened.close()

    def test_refused_add_is_not_journaled(self, journaled, paper_params):
        engine, path = journaled
        with pytest.raises(ParameterError):
            engine.add(_record("far", _with_first(paper_params, 10**6)))
        self._assert_unchanged(engine, path, paper_params, 2)

    @pytest.mark.parametrize("supersede", [False, True],
                             ids=["reenroll", "rotate"])
    def test_refused_new_version_is_not_journaled(self, journaled,
                                                  paper_params, supersede):
        engine, path = journaled
        bad = _record("old-0", _with_first(paper_params, INT64_MIN))
        op = engine.rotate if supersede else engine.reenroll
        with pytest.raises(ParameterError):
            op(bad)
        assert engine.active_version("old-0") == 0
        self._assert_unchanged(engine, path, paper_params, 2)

    @pytest.mark.parametrize("bad_last", _BAD_LAST_RECORDS)
    def test_refused_batch_leaves_engine_and_journal_unchanged(
            self, journaled, paper_params, bad_last):
        engine, path = journaled
        journal_bytes = path.stat().st_size
        batch = _uniform_records(paper_params, 3, seed=11, tag="new")
        with pytest.raises((EnrollmentError, ParameterError)):
            engine.add_many(batch + [bad_last(paper_params)])
        assert path.stat().st_size == journal_bytes
        assert engine.get("new-0") is None
        assert sum(engine.stats().shard_sizes) == 2
        self._assert_unchanged(engine, path, paper_params, 2)


#: A replicated entry a follower holding ``old-0`` and ``old-1`` refuses.
_BAD_REPLICATED_ENTRIES = [
    pytest.param(lambda p: encode_record_entry(
        OP_ENROLL, _record("old-0", _with_first(p, 0))),
        id="enroll-duplicate"),
    pytest.param(lambda p: encode_record_entry(
        OP_ENROLL, _record("far", _with_first(p, 10**6))),
        id="enroll-out-of-range"),
    pytest.param(lambda p: encode_record_entry(
        OP_ENROLL, _record("min", _with_first(p, INT64_MIN))),
        id="enroll-int64-min"),
    pytest.param(lambda p: encode_record_entry(
        OP_REENROLL, _record("ghost", _with_first(p, 0))),
        id="reenroll-unknown"),
    pytest.param(lambda p: encode_revoke_entry("ghost", None),
                 id="revoke-unknown"),
]


class TestRefusedReplicationLeavesTheFollowerJournalReplayable:
    @pytest.mark.parametrize("bad_entry", _BAD_REPLICATED_ENTRIES)
    def test_refused_entry_is_not_journaled(self, tmp_path, paper_params,
                                            bad_entry):
        path = tmp_path / "journal.log"
        follower = IdentificationEngine(paper_params, shards=2, journal=path)
        old = _uniform_records(paper_params, 2, tag="old")
        assert follower.apply_replicated(
            [(i, encode_record_entry(OP_ENROLL, r))
             for i, r in enumerate(old)]) == 2
        journal_bytes = path.stat().st_size
        with pytest.raises(ReplicationError, match="conflicts"):
            follower.apply_replicated([(2, bad_entry(paper_params))])
        assert path.stat().st_size == journal_bytes
        TestRefusedWritesLeaveTheJournalReplayable._assert_unchanged(
            follower, path, paper_params, 2)
