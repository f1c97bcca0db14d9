"""Tests for store persistence (the engine's save/open) and SystemParams
serialisation."""

import json

import pytest

from repro.core.extractor import SuccinctFuzzyExtractor
from repro.core.params import SystemParams
from repro.crypto.prng import HmacDrbg
from repro.engine import IdentificationEngine
from repro.engine.sharded import ShardedSketchIndex
from repro.exceptions import ParameterError
from repro.protocols.database import UserRecord


class TestParamsSerialisation:
    def test_dict_roundtrip(self):
        params = SystemParams.paper_defaults(n=321)
        assert SystemParams.from_dict(params.to_dict()) == params

    def test_json_roundtrip(self):
        params = SystemParams(a=7, k=6, v=12, t=20, n=44)
        assert SystemParams.from_json(params.to_json()) == params

    def test_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="unknown"):
            SystemParams.from_dict({"a": 1, "k": 2, "v": 3, "t": 1, "n": 1,
                                    "zz": 9})

    def test_rejects_missing_keys(self):
        with pytest.raises(ParameterError, match="missing"):
            SystemParams.from_dict({"a": 1, "k": 2})

    def test_rejects_malformed_json(self):
        with pytest.raises(ParameterError, match="malformed"):
            SystemParams.from_json("{not json")

    def test_rejects_non_object_json(self):
        with pytest.raises(ParameterError, match="object"):
            SystemParams.from_json("[1, 2, 3]")

    def test_invalid_values_still_validated(self):
        with pytest.raises(ParameterError):
            SystemParams.from_dict({"a": 100, "k": 3, "v": 10, "t": 1,
                                    "n": 4})


class TestStorePersistence:
    @pytest.fixture
    def populated_store(self, paper_params, rng):
        fe = SuccinctFuzzyExtractor(paper_params)
        store = IdentificationEngine(paper_params, shards=1)
        templates = {}
        for name in ("alice", "bob", "carol"):
            x = fe.sketcher.line.uniform_vector(rng)
            _, helper = fe.generate(x, HmacDrbg(name.encode()))
            templates[name] = x
            store.add(UserRecord(user_id=name,
                                 verify_key=name.encode() * 4,
                                 helper_data=helper.to_bytes()))
        return store, templates, fe

    def test_roundtrip_preserves_records(self, populated_store, tmp_path):
        store, _, _ = populated_store
        path = tmp_path / "store"
        store.save(path)
        with IdentificationEngine.open(path) as loaded:
            assert len(loaded) == len(store)
            for original, restored in zip(store, loaded):
                assert original == restored

    def test_roundtrip_preserves_search(self, populated_store, tmp_path,
                                        paper_params, rng):
        store, templates, fe = populated_store
        path = tmp_path / "store"
        store.save(path)
        noisy = fe.sketcher.line.reduce(
            templates["bob"] + rng.integers(
                -paper_params.t, paper_params.t + 1, paper_params.n)
        )
        probe = fe.sketcher.sketch(noisy, HmacDrbg(b"probe"))
        with IdentificationEngine.open(path) as loaded:
            assert [r.user_id for r in loaded.find_by_sketch(probe)] == \
                ["bob"]

    def test_roundtrip_preserves_params(self, populated_store, tmp_path):
        store, _, _ = populated_store
        path = tmp_path / "store"
        store.save(path)
        with IdentificationEngine.open(path) as loaded:
            assert loaded.params == store.params

    def test_empty_store_roundtrip(self, paper_params, tmp_path):
        store = IdentificationEngine(paper_params, shards=1)
        path = tmp_path / "empty"
        store.save(path)
        with IdentificationEngine.open(path) as loaded:
            assert len(loaded) == 0

    def test_save_is_atomic_under_midwrite_failure(self, populated_store,
                                                   tmp_path):
        """A save that dies mid-write must leave the previous store intact
        and no temp debris behind."""
        store, _, _ = populated_store
        path = tmp_path / "store"
        store.save(path)
        good = {p.name: p.read_bytes() for p in path.iterdir()}
        # A non-bytes verify key explodes while the record file is
        # serialised — after the shard files were already staged.
        store._extra.append(UserRecord(
            user_id="broken", verify_key=None, helper_data=b"hd"))
        store._index.add(store.get("alice").helper().movements)
        with pytest.raises(TypeError):
            store.save(path)
        assert {p.name: p.read_bytes() for p in path.iterdir()} == good
        with IdentificationEngine.open(path) as loaded:
            assert len(loaded) == 3

    def test_bulk_load_uses_one_index_write(self, populated_store, tmp_path,
                                            monkeypatch):
        """open() maps the saved sketch index: no row is re-added."""
        store, _, _ = populated_store
        path = tmp_path / "store"
        store.save(path)

        def refuse(*args, **kwargs):
            raise AssertionError("open() must not rebuild the index")

        monkeypatch.setattr(ShardedSketchIndex, "add", refuse)
        monkeypatch.setattr(ShardedSketchIndex, "add_many", refuse)
        with IdentificationEngine.open(path) as loaded:
            assert len(loaded) == 3
            assert loaded.get("carol").user_id == "carol"

    def test_truncated_file_rejected(self, populated_store, tmp_path):
        store, _, _ = populated_store
        path = tmp_path / "store"
        store.save(path)
        records = path / "records.bin"
        records.write_bytes(records.read_bytes()[:-10])  # clip a record
        with IdentificationEngine.open(path) as loaded:
            with pytest.raises(ParameterError, match="truncated"):
                loaded.get("alice")

    def test_corrupt_record_rejected(self, populated_store, tmp_path):
        store, _, _ = populated_store
        path = tmp_path / "store"
        store.save(path)
        records = path / "records.bin"
        data = bytearray(records.read_bytes())
        data[0:2] = b"\xff\xff"  # first record's user-id length
        records.write_bytes(bytes(data))
        with IdentificationEngine.open(path) as loaded:
            with pytest.raises(ParameterError, match="malformed engine record"):
                loaded.get("alice")

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("this is not json")
        with pytest.raises(ParameterError, match="malformed"):
            IdentificationEngine.open(tmp_path)

    def test_wrong_format_version_rejected(self, populated_store, tmp_path):
        store, _, _ = populated_store
        path = tmp_path / "store"
        store.save(path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParameterError, match="unsupported"):
            IdentificationEngine.open(path)

    def test_server_restart_flow(self, populated_store, tmp_path,
                                 paper_params, fast_scheme, rng):
        """Full restart: save, reopen into a new server, identify."""
        from repro.protocols.device import BiometricDevice
        from repro.protocols.runners import run_identification
        from repro.protocols.server import AuthenticationServer
        from repro.protocols.transport import DuplexLink

        store, templates, fe = populated_store
        # Real keys for one user so the challenge-response completes.
        secret, helper = fe.generate(templates["alice"], HmacDrbg(b"alice"))
        keypair = fast_scheme.keygen_from_seed(secret)
        store.rotate(UserRecord(user_id="alice",
                                verify_key=keypair.verify_key,
                                helper_data=helper.to_bytes()))
        path = tmp_path / "store"
        store.save(path)

        with IdentificationEngine.open(path) as reopened:
            restarted = AuthenticationServer(
                paper_params, fast_scheme, store=reopened, seed=b"restarted")
            device = BiometricDevice(paper_params, fast_scheme, seed=b"dev")
            noisy = fe.sketcher.line.reduce(
                templates["alice"] + rng.integers(
                    -paper_params.t, paper_params.t + 1, paper_params.n))
            run = run_identification(device, restarted, DuplexLink(), noisy)
        assert run.outcome.identified and run.outcome.user_id == "alice"
