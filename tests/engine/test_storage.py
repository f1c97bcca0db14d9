"""Tests for the mmap shard-store format (save / open / lazy records)."""

import json
import threading

import numpy as np
import pytest

from repro.core.extractor import SuccinctFuzzyExtractor
from repro.core.index import movement_dtype
from repro.crypto.prng import HmacDrbg
from repro.engine import IdentificationEngine, open_store
from repro.exceptions import ParameterError
from repro.protocols.database import UserRecord


@pytest.fixture
def saved_engine(paper_params, rng, tmp_path):
    """A 10-user engine saved to disk; returns (dir, engine, templates, fe)."""
    fe = SuccinctFuzzyExtractor(paper_params)
    engine = IdentificationEngine(paper_params, shards=3)
    templates = {}
    records = []
    for i in range(10):
        name = f"user-{i}"
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, HmacDrbg(name.encode()))
        templates[name] = x
        records.append(UserRecord(user_id=name, verify_key=name.encode() * 2,
                                  helper_data=helper.to_bytes()))
    engine.add_many(records)
    store_dir = tmp_path / "engine-store"
    engine.save(store_dir)
    return store_dir, engine, templates, fe


def _probe_for(fe, params, template, rng, tag=b"probe"):
    noisy = fe.sketcher.line.reduce(
        template + rng.integers(-params.t, params.t + 1, params.n)
    )
    return fe.sketcher.sketch(noisy, HmacDrbg(tag))


class TestRoundTrip:
    def test_search_results_identical(self, saved_engine, paper_params, rng):
        store_dir, engine, templates, fe = saved_engine
        opened = IdentificationEngine.open(store_dir)
        probes = np.stack([
            _probe_for(fe, paper_params, templates[f"user-{i}"], rng,
                       tag=b"rt%d" % i)
            for i in range(10)
        ])
        assert opened.search_batch(probes) == engine.search_batch(probes)
        for probe in probes:
            assert opened.search(probe) == engine.search(probe)
        opened.close()

    def test_records_round_trip(self, saved_engine):
        store_dir, engine, _, _ = saved_engine
        opened = IdentificationEngine.open(store_dir)
        assert len(opened) == len(engine)
        assert opened.all_records() == engine.all_records()
        assert opened.get("user-4") == engine.get("user-4")
        assert opened.params == engine.params
        opened.close()

    def test_open_is_lazy_about_record_bytes(self, saved_engine,
                                             paper_params, rng):
        """Opening (and searching!) must not parse records.bin: mangling
        the record payload affects neither — only record access."""
        store_dir, _, templates, fe = saved_engine
        blob_path = store_dir / "records.bin"
        size = blob_path.stat().st_size
        blob_path.write_bytes(b"\xff" * size)  # same length, pure garbage
        opened = IdentificationEngine.open(store_dir)  # no parse -> no error
        probe = _probe_for(fe, paper_params, templates["user-2"], rng)
        assert opened.search(probe) == [2]  # sketches untouched
        with pytest.raises(ParameterError):
            opened.all_records()  # record access does hit the garbage
        opened.close()

    def test_warm_touches_all_sketch_bytes(self, saved_engine, paper_params):
        store_dir, _, _, _ = saved_engine
        opened = IdentificationEngine.open(store_dir)
        stats = opened.stats()
        assert stats.cold_opened and not stats.warmed
        touched = opened.warm()
        width = movement_dtype(paper_params).itemsize
        assert touched >= 10 * paper_params.n * width  # at least the sketches
        assert opened.stats().warmed
        opened.close()

    def test_empty_engine_round_trips(self, paper_params, tmp_path):
        engine = IdentificationEngine(paper_params, shards=2)
        engine.save(tmp_path / "empty")
        opened = IdentificationEngine.open(tmp_path / "empty")
        assert len(opened) == 0
        assert opened.search(np.zeros(paper_params.n, dtype=np.int64)) == []
        opened.close()

    def test_no_temp_files_left_behind(self, saved_engine):
        store_dir, _, _, _ = saved_engine
        leftovers = list(store_dir.glob("*.tmp"))
        assert leftovers == []


class TestConcurrentColdReads:
    def test_concurrent_gets_return_the_requested_record(
            self, paper_params, rng, tmp_path, watchdog):
        """Concurrent gets on a cold-opened store each read their own
        record: a shared seek+read handle would hand some threads
        another user's record (or a short read)."""
        fe = SuccinctFuzzyExtractor(paper_params)
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, HmacDrbg(b"shared"))
        blob = helper.to_bytes()
        names = [f"user-{i}" for i in range(2_000)]
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many([UserRecord(user_id=name, verify_key=b"vk",
                                    helper_data=blob) for name in names])
        engine.save(tmp_path / "store")
        opened = IdentificationEngine.open(tmp_path / "store")
        threads_n, gets = 8, 3_000
        wrong: list[tuple[str, str | None]] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(threads_n)

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for i in range(gets):
                    name = names[(tid * 997 + i * 31) % len(names)]
                    record = opened.get(name)
                    got = None if record is None else record.user_id
                    if got != name:
                        wrong.append((name, got))
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        opened.close()
        assert not errors, errors[0]
        assert wrong == []


class TestAppendAfterOpen:
    def test_enroll_into_opened_store(self, saved_engine, paper_params, rng):
        store_dir, _, _, fe = saved_engine
        opened = IdentificationEngine.open(store_dir)
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, HmacDrbg(b"late"))
        opened.add(UserRecord(user_id="latecomer", verify_key=b"vk",
                              helper_data=helper.to_bytes()))
        assert len(opened) == 11
        probe = _probe_for(fe, paper_params, x, rng, tag=b"late-probe")
        assert [r.user_id for r in opened.find_by_sketch(probe)] == \
            ["latecomer"]
        # And the grown engine can be saved again and reopened.
        second = store_dir.parent / "engine-store-2"
        opened.save(second)
        reopened = IdentificationEngine.open(second)
        assert len(reopened) == 11
        assert [r.user_id for r in reopened.find_by_sketch(probe)] == \
            ["latecomer"]
        reopened.close()
        opened.close()

    def test_failed_resave_leaves_old_store_untouched(self, saved_engine):
        """A save that dies during serialisation (stage phase) must leave
        the existing store byte-for-byte intact and still openable."""
        store_dir, engine, _, _ = saved_engine
        before = {
            p.name: p.read_bytes() for p in store_dir.iterdir()
        }
        # A record that cannot encode: verify_key=None explodes inside
        # _encode_record, after some shard files were already staged.
        engine._extra.append(UserRecord(
            user_id="broken", verify_key=None, helper_data=b"hd"))
        engine._index.add(np.zeros(engine.params.n, dtype=np.int64))
        with pytest.raises(TypeError):
            engine.save(store_dir)
        after = {
            p.name: p.read_bytes() for p in store_dir.iterdir()
            if not p.name.endswith(".tmp")
        }
        assert after == before
        assert list(store_dir.glob("*.tmp")) == []  # staged temps cleaned
        reopened = IdentificationEngine.open(store_dir)
        assert len(reopened) == 10
        reopened.close()

    def test_resave_with_fewer_shards_sweeps_stale_files(self, saved_engine,
                                                         paper_params):
        """Overwriting a store with a narrower shard layout must not leave
        old shard files that a future layout change could mis-read."""
        store_dir, engine, _, _ = saved_engine  # 3 shards on disk
        narrow = IdentificationEngine(paper_params, shards=1)
        narrow.add_many(engine.all_records())
        narrow.save(store_dir)
        shard_files = sorted(p.name for p in store_dir.glob("shard-*"))
        assert shard_files == ["shard-0000.rows", "shard-0000.sketches"]
        reopened = IdentificationEngine.open(store_dir)
        assert len(reopened) == len(engine)
        reopened.close()

    def test_replace_helper_on_opened_store(self, saved_engine):
        store_dir, _, _, _ = saved_engine
        opened = IdentificationEngine.open(store_dir)
        opened.replace_helper("user-1", b"rewritten")
        assert opened.get("user-1").helper_data == b"rewritten"
        assert opened.get("user-2").helper_data != b"rewritten"
        opened.close()


class TestManifestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParameterError, match="not an engine store"):
            open_store(tmp_path)

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ParameterError, match="malformed"):
            open_store(tmp_path)

    def test_wrong_format_version(self, saved_engine):
        store_dir, _, _, _ = saved_engine
        manifest = json.loads((store_dir / "manifest.json").read_text())
        manifest["format"] = 99
        (store_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParameterError, match="unsupported"):
            open_store(store_dir)

    def test_count_mismatch_detected(self, saved_engine):
        store_dir, _, _, _ = saved_engine
        manifest = json.loads((store_dir / "manifest.json").read_text())
        manifest["records"] = 99
        (store_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParameterError, match="shard counts"):
            open_store(store_dir)

    def test_truncated_shard_file_detected(self, saved_engine):
        store_dir, _, _, _ = saved_engine
        victim = sorted(store_dir.glob("shard-*.sketches"))[0]
        data = victim.read_bytes()
        victim.write_bytes(data[:-4])
        with pytest.raises(ParameterError, match="bytes"):
            open_store(store_dir)

    def test_out_of_range_legacy_shard_refused(self, saved_engine,
                                               write_legacy_layout):
        """A format 1-3 shard file is range-checked as it is transposed
        into RAM: a value outside [-ka/2, ka/2] is refused, not wrapped
        into the narrower dtype."""
        store_dir, engine, _, _ = saved_engine
        rows = np.stack([r.helper().movements for r in engine.all_records()])
        rows[3, 0] = engine.params.interval_width
        write_legacy_layout(store_dir, rows, 3)
        with pytest.raises(ParameterError, match="must lie in"):
            open_store(store_dir)

    def test_missing_shard_file_detected(self, saved_engine):
        store_dir, _, _, _ = saved_engine
        candidates = [p for p in sorted(store_dir.glob("shard-*.rows"))
                      if p.stat().st_size]
        candidates[0].unlink()
        with pytest.raises(ParameterError, match="missing"):
            open_store(store_dir)


class TestStoreLifecycle:
    """OpenedStore.close / engine shutdown: no leaked maps or fds."""

    @staticmethod
    def _open_fds() -> int:
        import gc
        import os

        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    @staticmethod
    def _needs_proc():
        import os

        if not os.path.isdir("/proc/self/fd"):  # pragma: no cover
            pytest.skip("needs /proc (Linux)")

    def test_close_releases_fds(self, saved_engine):
        self._needs_proc()
        store_dir, _, _, _ = saved_engine
        before = self._open_fds()
        opened = open_store(store_dir)
        assert opened.records[0].user_id == "user-0"  # record handle too
        while_open = self._open_fds()
        assert while_open > before  # shard + offset maps hold dup'd fds
        opened.close()
        assert self._open_fds() == before

    def test_close_is_idempotent(self, saved_engine):
        store_dir, _, _, _ = saved_engine
        opened = open_store(store_dir)
        opened.close()
        opened.close()

    def test_context_manager_closes(self, saved_engine):
        self._needs_proc()
        store_dir, _, _, _ = saved_engine
        before = self._open_fds()
        with open_store(store_dir) as opened:
            assert len(opened.records) == 10
            assert opened.total_records == 10
        assert opened.total_records == 0
        assert self._open_fds() == before

    def test_records_read_as_empty_after_close(self, saved_engine):
        store_dir, _, _, _ = saved_engine
        opened = open_store(store_dir)
        assert opened.records[0].user_id == "user-0"
        opened.close()
        assert len(opened.records) == 0
        with pytest.raises(IndexError):
            opened.records[0]

    def test_straggler_view_stays_readable(self, saved_engine):
        """Release is by reference dropping: a view kept past close()
        still reads (keeping only its own mapping alive) instead of
        touching unmapped memory."""
        store_dir, _, _, _ = saved_engine
        opened = open_store(store_dir)
        matrix, _ = opened.shard_parts[0]
        checksum = int(matrix.sum())
        opened.close()
        assert int(matrix.sum()) == checksum

    def test_engine_close_releases_store_fds(self, saved_engine):
        self._needs_proc()
        store_dir, _, _, _ = saved_engine
        before = self._open_fds()
        engine = IdentificationEngine.open(store_dir)
        assert engine.get("user-3") is not None
        assert self._open_fds() > before
        engine.close()
        engine.close()  # idempotent through the engine too
        assert self._open_fds() == before
        assert len(engine) == 0  # closed engines read as empty

    def test_open_close_cycles_do_not_leak(self, saved_engine):
        self._needs_proc()
        store_dir, _, _, _ = saved_engine
        # Prime any lazily created fds, then measure a steady state.
        for _ in range(2):
            engine = IdentificationEngine.open(store_dir)
            engine.get("user-0")
            engine.close()
        before = self._open_fds()
        for _ in range(20):
            engine = IdentificationEngine.open(store_dir)
            engine.get("user-5")  # touches the record file handle too
            engine.close()
        assert self._open_fds() <= before

    def test_unclosed_opens_do_accumulate_fds(self, saved_engine):
        """The regression the close path exists to stop, inverted:
        *without* close(), repeated opens pile up file descriptors."""
        self._needs_proc()
        store_dir, _, _, _ = saved_engine
        before = self._open_fds()
        kept = [IdentificationEngine.open(store_dir) for _ in range(5)]
        leaked = self._open_fds() - before
        for engine in kept:
            engine.close()
        kept.clear()
        assert leaked >= 5  # several maps per open stayed alive
        assert self._open_fds() <= before
