"""Tests for the helper-data store: the identification engine's record
surface and the stored ``UserRecord``."""

import pytest

from repro.core.extractor import SuccinctFuzzyExtractor
from repro.crypto.prng import HmacDrbg
from repro.engine import IdentificationEngine
from repro.exceptions import EnrollmentError
from repro.protocols.database import UserRecord


def _record(fe, rng, user_id, drbg_seed=b"r"):
    x = fe.sketcher.line.uniform_vector(rng)
    _, helper = fe.generate(x, HmacDrbg(drbg_seed + user_id.encode()))
    return x, UserRecord(user_id=user_id, verify_key=b"\x02" * 33,
                         helper_data=helper.to_bytes())


class TestStore:
    @pytest.fixture
    def fe(self, paper_params):
        return SuccinctFuzzyExtractor(paper_params)

    def test_add_and_get(self, fe, paper_params, rng):
        store = IdentificationEngine(paper_params, shards=1)
        _, record = _record(fe, rng, "alice")
        store.add(record)
        assert store.get("alice") == record
        assert store.get("bob") is None
        assert len(store) == 1

    def test_duplicate_rejected(self, fe, paper_params, rng):
        store = IdentificationEngine(paper_params, shards=1)
        _, record = _record(fe, rng, "alice")
        store.add(record)
        with pytest.raises(EnrollmentError, match="already enrolled"):
            store.add(record)

    def test_find_by_sketch(self, fe, paper_params, rng):
        store = IdentificationEngine(paper_params, shards=1)
        templates = {}
        for name in ("alice", "bob", "carol"):
            x, record = _record(fe, rng, name)
            templates[name] = x
            store.add(record)
        noisy = fe.sketcher.line.reduce(
            templates["bob"] + rng.integers(
                -paper_params.t, paper_params.t + 1, paper_params.n)
        )
        probe = fe.sketcher.sketch(noisy, HmacDrbg(b"probe"))
        found = store.find_by_sketch(probe)
        assert [r.user_id for r in found] == ["bob"]

    def test_find_unknown_returns_empty(self, fe, paper_params, rng):
        store = IdentificationEngine(paper_params, shards=1)
        x, record = _record(fe, rng, "alice")
        store.add(record)
        probe = fe.sketcher.sketch(
            fe.sketcher.line.uniform_vector(rng), HmacDrbg(b"imp")
        )
        assert store.find_by_sketch(probe) == []

    def test_iteration_order_is_enrollment_order(self, fe, paper_params, rng):
        store = IdentificationEngine(paper_params, shards=1)
        for name in ("u1", "u2", "u3"):
            store.add(_record(fe, rng, name)[1])
        assert [r.user_id for r in store] == ["u1", "u2", "u3"]
        assert [r.user_id for r in store.all_records()] == ["u1", "u2", "u3"]

    def test_replace_helper(self, fe, paper_params, rng):
        store = IdentificationEngine(paper_params, shards=1)
        _, record = _record(fe, rng, "alice")
        store.add(record)
        store.replace_helper("alice", b"\x00" * 8)
        assert store.get("alice").helper_data == b"\x00" * 8

    def test_replace_helper_unknown_user(self, fe, paper_params):
        store = IdentificationEngine(paper_params, shards=1)
        with pytest.raises(EnrollmentError, match="not enrolled"):
            store.replace_helper("ghost", b"")

    def test_record_helper_parses(self, fe, paper_params, rng):
        _, record = _record(fe, rng, "alice")
        helper = record.helper()
        assert helper.movements.shape == (paper_params.n,)
