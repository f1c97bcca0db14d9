"""Tests for the identification-engine facade and its protocol wiring."""

import numpy as np
import pytest

from repro.core.extractor import SuccinctFuzzyExtractor
from repro.core.index import NaiveLoopIndex
from repro.crypto.prng import HmacDrbg
from repro.engine import IdentificationEngine
from repro.exceptions import EnrollmentError
from repro.protocols.database import UserRecord


@pytest.fixture
def enrolled_engine(paper_params, rng):
    """An engine with 8 real enrollments + the matching templates."""
    fe = SuccinctFuzzyExtractor(paper_params)
    engine = IdentificationEngine(paper_params, shards=3)
    templates = {}
    records = []
    for i in range(8):
        name = f"user-{i}"
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, HmacDrbg(name.encode()))
        templates[name] = x
        records.append(UserRecord(user_id=name, verify_key=name.encode() * 3,
                                  helper_data=helper.to_bytes()))
    engine.add_many(records[:6])
    for record in records[6:]:
        engine.add(record)
    return engine, templates, fe


def _probe_for(fe, params, template, rng, tag=b"probe"):
    noisy = fe.sketcher.line.reduce(
        template + rng.integers(-params.t, params.t + 1, params.n)
    )
    return fe.sketcher.sketch(noisy, HmacDrbg(tag))


class TestStoreSurface:
    def test_find_by_sketch_matches_enrolled_user(self, enrolled_engine,
                                                  paper_params, rng):
        engine, templates, fe = enrolled_engine
        probe = _probe_for(fe, paper_params, templates["user-3"], rng)
        assert [r.user_id for r in engine.find_by_sketch(probe)] == ["user-3"]

    def test_get_and_iteration(self, enrolled_engine):
        engine, _, _ = enrolled_engine
        assert engine.get("user-5").user_id == "user-5"
        assert engine.get("ghost") is None
        assert [r.user_id for r in engine] == [f"user-{i}" for i in range(8)]
        assert len(engine.all_records()) == len(engine) == 8

    def test_duplicate_identity_refused(self, enrolled_engine):
        engine, _, _ = enrolled_engine
        record = engine.get("user-0")
        with pytest.raises(EnrollmentError, match="already enrolled"):
            engine.add(record)
        with pytest.raises(EnrollmentError, match="already enrolled"):
            engine.add_many([record])

    def test_add_many_rejects_in_batch_duplicates_atomically(
            self, enrolled_engine, paper_params, rng):
        engine, _, fe = enrolled_engine
        x = fe.sketcher.line.uniform_vector(rng)
        _, helper = fe.generate(x, HmacDrbg(b"dup"))
        fresh = UserRecord(user_id="fresh", verify_key=b"vk",
                           helper_data=helper.to_bytes())
        dup = UserRecord(user_id="fresh", verify_key=b"vk2",
                         helper_data=helper.to_bytes())
        before = len(engine)
        with pytest.raises(EnrollmentError):
            engine.add_many([fresh, dup])
        assert len(engine) == before  # nothing half-inserted

    def test_replace_helper_models_insider(self, enrolled_engine):
        engine, _, _ = enrolled_engine
        engine.replace_helper("user-2", b"garbage")
        assert engine.get("user-2").helper_data == b"garbage"
        with pytest.raises(EnrollmentError, match="not enrolled"):
            engine.replace_helper("ghost", b"x")

    def test_agrees_with_helper_data_store(self, enrolled_engine,
                                           paper_params, rng):
        """Engine candidates == the reference loop's rows on the same data."""
        engine, templates, fe = enrolled_engine
        records = engine.all_records()
        reference = NaiveLoopIndex(paper_params)
        for record in records:
            reference.add(record.helper().movements)
        probes = np.stack([
            _probe_for(fe, paper_params, templates[f"user-{i}"], rng,
                       tag=b"p%d" % i)
            for i in range(8)
        ])
        flat = [[records[row].user_id for row in reference.search(probe)]
                for probe in probes]
        batched = engine.find_by_sketch_batch(probes)
        assert [[r.user_id for r in row] for row in batched] == flat


class TestCounters:
    def test_counters_accumulate(self, enrolled_engine, paper_params, rng):
        engine, templates, fe = enrolled_engine
        probe = _probe_for(fe, paper_params, templates["user-1"], rng)
        engine.find_by_sketch(probe)
        engine.search_batch(np.stack([probe, probe, probe]))
        stats = engine.stats()
        assert stats.probes_served == 4
        assert stats.batches_served == 2
        assert stats.candidates_returned == 4
        assert stats.candidates_per_probe == pytest.approx(1.0)
        assert sum(stats.latency_buckets.values()) == 2
        assert not stats.cold_opened
        assert len(stats.shard_sizes) == 3
        assert sum(stats.shard_sizes) == 8

    def test_summary_lines_render(self, enrolled_engine):
        engine, _, _ = enrolled_engine
        lines = engine.stats().summary_lines()
        assert any("8 enrolled" in line for line in lines)
        assert any("latency histogram" in line for line in lines)


class TestServerIntegration:
    def test_identification_over_engine_store(self, paper_params,
                                              fast_scheme, rng):
        from repro.protocols.device import BiometricDevice
        from repro.protocols.runners import run_enrollment, run_identification
        from repro.protocols.server import AuthenticationServer
        from repro.protocols.transport import DuplexLink

        server = AuthenticationServer.with_engine(
            paper_params, fast_scheme, shards=2, seed=b"engine-server")
        device = BiometricDevice(paper_params, fast_scheme, seed=b"dev")
        line = SuccinctFuzzyExtractor(paper_params).sketcher.line
        templates = {}
        for name in ("alice", "bob", "carol"):
            templates[name] = line.uniform_vector(rng)
            run = run_enrollment(device, server, DuplexLink(), name,
                                 templates[name])
            assert run.outcome.accepted

        noisy = line.reduce(templates["bob"] + rng.integers(
            -paper_params.t, paper_params.t + 1, paper_params.n))
        run = run_identification(device, server, DuplexLink(), noisy)
        assert run.outcome.identified and run.outcome.user_id == "bob"

        stranger = line.uniform_vector(rng)
        run = run_identification(device, server, DuplexLink(), stranger)
        assert not run.outcome.identified

        assert server.engine_stats().probes_served == 2


class TestKeyTableCache:
    def test_server_adopts_engine_cache(self, paper_params, fast_scheme):
        from repro.protocols.server import AuthenticationServer

        server = AuthenticationServer.with_engine(
            paper_params, fast_scheme, shards=2, seed=b"s")
        assert server.key_tables is server.store.key_tables

    def test_explicit_capacity_with_engine_store_rejected(
            self, paper_params, fast_scheme):
        from repro.protocols.server import AuthenticationServer

        engine = IdentificationEngine(paper_params, shards=2,
                                      key_table_capacity=8)
        # The cache is sized on the store; the server adopts it.
        server = AuthenticationServer(paper_params, fast_scheme,
                                      store=engine, seed=b"s")
        assert server.key_tables.capacity == 8

    def test_repeated_identification_warms_tables(self, paper_params,
                                                  fast_scheme, rng):
        from repro.protocols.device import BiometricDevice
        from repro.protocols.runners import run_enrollment, run_identification
        from repro.protocols.server import AuthenticationServer
        from repro.protocols.transport import DuplexLink

        server = AuthenticationServer.with_engine(
            paper_params, fast_scheme, shards=2, seed=b"warm-server")
        device = BiometricDevice(paper_params, fast_scheme, seed=b"dev")
        line = SuccinctFuzzyExtractor(paper_params).sketcher.line
        template = line.uniform_vector(rng)
        run_enrollment(device, server, DuplexLink(), "alice", template)

        for _ in range(3):
            noisy = line.reduce(template + rng.integers(
                -paper_params.t, paper_params.t + 1, paper_params.n))
            run = run_identification(device, server, DuplexLink(), noisy)
            assert run.outcome.identified

        stats = server.engine_stats()
        # 1st verify: cold (seen once); 2nd: table built; 3rd: warm hit.
        assert stats.key_table_entries == 1
        assert stats.key_table_hits == 1
        assert stats.key_table_misses == 2
        assert any("verify-key tables" in line
                   for line in stats.summary_lines())

    def test_tables_shared_across_servers_on_one_engine(
            self, paper_params, fast_scheme, rng):
        from repro.protocols.device import BiometricDevice
        from repro.protocols.runners import run_enrollment, run_identification
        from repro.protocols.server import AuthenticationServer
        from repro.protocols.transport import DuplexLink

        engine = IdentificationEngine(paper_params, shards=2)
        first = AuthenticationServer(paper_params, fast_scheme,
                                     store=engine, seed=b"a")
        device = BiometricDevice(paper_params, fast_scheme, seed=b"dev")
        line = SuccinctFuzzyExtractor(paper_params).sketcher.line
        template = line.uniform_vector(rng)
        run_enrollment(device, first, DuplexLink(), "bob", template)
        for _ in range(2):
            noisy = line.reduce(template + rng.integers(
                -paper_params.t, paper_params.t + 1, paper_params.n))
            assert run_identification(device, first, DuplexLink(),
                                      noisy).outcome.identified

        # A second server over the same engine starts with warm tables.
        second = AuthenticationServer(paper_params, fast_scheme,
                                      store=engine, seed=b"b")
        assert second.key_tables is engine.key_tables
        noisy = line.reduce(template + rng.integers(
            -paper_params.t, paper_params.t + 1, paper_params.n))
        assert run_identification(device, second, DuplexLink(),
                                  noisy).outcome.identified
        assert engine.key_tables.hits >= 1


class TestSimulationIntegration:
    def test_workload_over_engine(self, paper_params, fast_scheme):
        from repro.protocols.simulation import WorkloadSimulator

        simulator = WorkloadSimulator.with_engine(
            paper_params, fast_scheme, n_users=3, seed=1, shards=2)
        report = simulator.run(10)
        assert report.n_requests == 10
        stats = simulator.engine_stats()
        assert stats.enrolled == 3
        assert stats.probes_served == 10

    def test_engine_and_classic_store_identify_identically(
            self, paper_params, fast_scheme):
        from repro.protocols.simulation import WorkloadSimulator

        classic = WorkloadSimulator(paper_params, fast_scheme,
                                    n_users=4, seed=9)
        engined = WorkloadSimulator.with_engine(paper_params, fast_scheme,
                                                n_users=4, seed=9, shards=3)
        a = classic.run(12)
        b = engined.run(12)
        for klass in a.per_class:
            assert a.per_class[klass].requests == b.per_class[klass].requests
            assert a.per_class[klass].identified == \
                b.per_class[klass].identified


class TestCounterThreadSafety:
    """Concurrent searches must not lose counter updates (service layer
    worker pools drive one engine from many threads)."""

    def test_concurrent_search_counters_consistent(self, enrolled_engine,
                                                   paper_params, rng,
                                                   watchdog):
        import threading

        engine, templates, fe = enrolled_engine
        probes = {
            name: _probe_for(fe, paper_params, template, rng,
                             tag=name.encode())
            for name, template in templates.items()
        }
        probe_list = list(probes.values())
        n_threads, per_thread = 6, 25
        errors: list[str] = []
        barrier = threading.Barrier(n_threads)

        def worker(tid: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                probe = probe_list[(tid + i) % len(probe_list)]
                if len(engine.search(probe)) != 1:
                    errors.append(f"thread {tid} probe {i}: wrong hit count")
                engine.get(f"user-{(tid + i) % 8}")

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = engine.stats()
        total = n_threads * per_thread
        assert stats.probes_served == total
        assert stats.batches_served == total
        assert stats.candidates_returned == total
        assert sum(stats.latency_buckets.values()) == total

    def test_cold_open_identity_map_race(self, enrolled_engine, tmp_path,
                                         watchdog):
        """Threads racing the lazy id-map build all see every user."""
        import threading

        engine, _, _ = enrolled_engine
        engine.save(tmp_path / "store")
        opened = IdentificationEngine.open(tmp_path / "store")
        results: list[set] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def worker() -> None:
            try:
                barrier.wait()
                results.append({f"user-{i}" for i in range(8)
                                if opened.get(f"user-{i}") is not None})
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        opened.close()
        assert not errors, errors[0]
        assert len(results) == 4
        assert all(found == {f"user-{i}" for i in range(8)}
                   for found in results)
