"""Versioned identity records: rotate / revoke / compact, end to end.

Covers the lifecycle tentpole at the engine layer:

* version semantics — re-enroll keeps the old sketch verify-only,
  rotate supersedes it, revoke retires versions (idempotently) and
  promotes the newest verify-only survivor;
* identification searches *active* versions only, while verify-only
  versions stay resolvable for verification;
* lifecycle ops are write-ahead journaled (typed entries) and replay
  exactly on reopen, recover, and replication;
* ``compact_store`` rewrites a store keeping live rows only and starts
  a fresh typed journal base, after which primary and a
  journal-following standby still answer identically;
* format-v1 stores (no ``status.bin``, no lifecycle manifest keys) open
  unchanged through the compatibility shim.

Run under the SIGALRM watchdog: these tests spin real engines with
journals and mmap stores, and a deadlock should fail loudly, not hang
the suite.
"""

import json

import numpy as np
import pytest

from repro.core.extractor import SuccinctFuzzyExtractor
from repro.crypto.prng import HmacDrbg
from repro.engine import IdentificationEngine, compact_store
from repro.engine.journal import EnrollmentJournal, journal_path
from repro.engine.lifecycle import (
    ALL_VERSIONS,
    OP_REVOKE,
    OP_ROTATE,
    decode_entry,
    encode_revoke_entry,
)
from repro.exceptions import EnrollmentError, ParameterError
from repro.protocols.database import UserRecord

pytestmark = pytest.mark.usefixtures("watchdog")


@pytest.fixture
def population(paper_params, rng):
    """Enrollable records + templates + the extractor that made them."""
    fe = SuccinctFuzzyExtractor(paper_params)

    def make(user_id: str, template=None):
        x = fe.sketcher.line.uniform_vector(rng) if template is None \
            else template
        _, helper = fe.generate(x, HmacDrbg(f"{user_id}-{rng.integers(1 << 30)}".encode()))
        return UserRecord(user_id=user_id, verify_key=user_id.encode() * 3,
                          helper_data=helper.to_bytes()), x

    records, templates = [], {}
    for i in range(4):
        record, x = make(f"user-{i}")
        records.append(record)
        templates[record.user_id] = x
    return records, templates, fe, make


def _legacy_record(record: UserRecord) -> UserRecord:
    """``record`` with its helper blob in the legacy int64 layout."""
    helper = record.helper()
    body = helper.movements.astype(">i8").tobytes()
    blob = b"".join([len(body).to_bytes(8, "big"), body,
                     len(helper.tag).to_bytes(2, "big"), helper.tag,
                     len(helper.seed).to_bytes(2, "big"), helper.seed])
    return UserRecord(user_id=record.user_id, verify_key=record.verify_key,
                      helper_data=blob)


def _probe(fe, params, template, rng):
    noisy = fe.sketcher.line.reduce(
        template + rng.integers(-params.t, params.t + 1, params.n))
    return fe.sketcher.sketch(noisy, HmacDrbg(b"probe"))


class TestVersionSemantics:
    def test_reenroll_keeps_old_version_verify_only(self, paper_params,
                                                    population):
        records, templates, fe, make = population
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records)
        fresh, _ = make("user-1", templates["user-1"])
        assert engine.reenroll(fresh) == 1
        versions = engine.get_versions("user-1")
        assert [v.status_name for v in versions] == ["verify-only", "active"]
        assert engine.active_version("user-1") == 1
        assert engine.get("user-1") == fresh
        # The demoted sketch still resolves for verification.
        assert engine.get_version("user-1", 0) == records[1]
        # Identity count is versions-blind.
        assert engine.identity_count() == 4
        assert len(engine) == 5  # rows, not identities

    def test_rotate_supersedes_old_version(self, paper_params, population):
        records, templates, fe, make = population
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records)
        fresh, _ = make("user-2", templates["user-2"])
        assert engine.rotate(fresh) == 1
        versions = engine.get_versions("user-2")
        assert [v.status_name for v in versions] == ["superseded", "active"]
        # A superseded sketch no longer resolves.
        assert engine.get_version("user-2", 0) is None
        assert engine.get_version("user-2", 1) == fresh

    def test_lifecycle_on_unknown_identity_refused(self, paper_params,
                                                   population):
        records, _, _, make = population
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records)
        ghost, _ = make("nobody")
        with pytest.raises(EnrollmentError, match="not enrolled"):
            engine.rotate(ghost)
        with pytest.raises(EnrollmentError, match="not enrolled"):
            engine.reenroll(ghost)

    def test_revoke_single_version_promotes_survivor(self, paper_params,
                                                     population):
        records, templates, _, make = population
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records)
        fresh, _ = make("user-0", templates["user-0"])
        engine.reenroll(fresh)
        # Revoking the active version falls back to the newest
        # verify-only predecessor — never to a superseded one.
        assert engine.revoke("user-0", version=1) == 1
        assert engine.active_version("user-0") == 0
        assert engine.get("user-0") == records[0]
        statuses = [v.status_name for v in engine.get_versions("user-0")]
        assert statuses == ["active", "revoked"]

    def test_revoke_all_goes_dark_until_fresh_enroll(self, paper_params,
                                                     population):
        records, templates, fe, make = population
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records)
        fresh, _ = make("user-3", templates["user-3"])
        engine.reenroll(fresh)
        assert engine.revoke("user-3") == 2  # both versions retired
        assert engine.get("user-3") is None
        assert engine.active_version("user-3") is None

    def test_revoke_is_idempotent(self, paper_params, population):
        records, _, _, _ = population
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records)
        assert engine.revoke("user-1") == 1
        assert engine.revoke("user-1") == 0  # already revoked
        assert engine.revoke("user-1", version=0) == 0
        assert engine.revoke("ghost") == 0  # unknown identity: no-op
        assert engine.revoke("user-2", version=99) == 0  # out of range

    def test_search_sees_active_versions_only(self, paper_params, rng,
                                              population):
        records, templates, fe, make = population
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records)
        probe = _probe(fe, paper_params, templates["user-1"], rng)
        assert [r.user_id for r in engine.find_by_sketch(probe)] == \
               ["user-1"]
        # Rotate to a *different* template: the old sketch would still
        # match the probe, but it is superseded — the search must not
        # return it.
        other, _ = make("user-1")
        engine.rotate(other)
        assert engine.find_by_sketch(probe) == []
        # Revoked identities disappear from identification entirely.
        probe2 = _probe(fe, paper_params, templates["user-2"], rng)
        engine.revoke("user-2")
        assert engine.find_by_sketch(probe2) == []


class TestLifecycleJournalReplay:
    def test_ops_replay_exactly_on_reopen(self, tmp_path, paper_params,
                                          rng, population):
        records, templates, fe, make = population
        store = tmp_path / "store"
        engine = IdentificationEngine(paper_params, shards=2,
                                      journal=journal_path(store))
        engine.add_many(records)
        engine.save(store)
        # Everything after the checkpoint lives only in the journal.
        fresh, _ = make("user-0", templates["user-0"])
        engine.reenroll(fresh)
        rotated, x_rot = make("user-1")
        engine.rotate(rotated)
        engine.revoke("user-2")
        engine.journal.close()

        reopened = IdentificationEngine.open(store)
        try:
            assert reopened.journal_seq() == 7
            assert [v.status_name
                    for v in reopened.get_versions("user-0")] == \
                   ["verify-only", "active"]
            assert [v.status_name
                    for v in reopened.get_versions("user-1")] == \
                   ["superseded", "active"]
            assert reopened.get("user-2") is None
            probe = _probe(fe, paper_params, x_rot, rng)
            assert [r.user_id for r in reopened.find_by_sketch(probe)] == \
                   ["user-1"]
        finally:
            reopened.journal.close()

    def test_typed_entry_round_trip(self, paper_params, population):
        records, _, _, _ = population
        op, body = decode_entry(
            encode_revoke_entry("user-9", None))
        assert op == OP_REVOKE and body == ("user-9", None)
        op, body = decode_entry(encode_revoke_entry("u", 3))
        assert op == OP_REVOKE and body == ("u", 3)
        assert ALL_VERSIONS == 0xFFFFFFFF

    def test_lifecycle_refused_on_record_format_journal(
            self, tmp_path, paper_params, population):
        records, templates, _, make = population
        # A pre-lifecycle journal: created directly, record format.
        journal = EnrollmentJournal(tmp_path / "journal.log",
                                    params=paper_params)
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records[:2])
        engine.attach_journal(journal)
        fresh, _ = make("user-0", templates["user-0"])
        with pytest.raises(ParameterError, match="repro compact"):
            engine.rotate(fresh)
        # Plain enrollment still works against the old journal.
        engine.add(records[2])
        journal.close()

    def test_replicated_lifecycle_reaches_standby(self, paper_params,
                                                  population):
        records, templates, _, make = population
        primary = IdentificationEngine(paper_params, shards=2)
        # In-memory engines carry the typed-entry semantics through
        # apply_replicated exactly as the wire does.
        primary.add_many(records)
        fresh, _ = make("user-1", templates["user-1"])
        entries = [(i, p) for i, p in enumerate(
            self._journal_entries(paper_params, records, fresh))]
        standby = IdentificationEngine(paper_params, shards=2)
        applied = standby.apply_replicated(entries)
        assert applied == len(entries)
        assert [v.status_name for v in standby.get_versions("user-1")] == \
               ["superseded", "active"]
        assert standby.get("user-3") is None

    @staticmethod
    def _journal_entries(params, records, fresh):
        from repro.engine.lifecycle import (
            OP_ENROLL,
            encode_record_entry,
        )
        payloads = [encode_record_entry(OP_ENROLL, r) for r in records]
        payloads.append(encode_record_entry(OP_ROTATE, fresh))
        payloads.append(encode_revoke_entry("user-3", None))
        return payloads


class TestCompaction:
    def _build(self, tmp_path, paper_params, population):
        records, templates, fe, make = population
        store = tmp_path / "store"
        engine = IdentificationEngine(paper_params, shards=2,
                                      journal=journal_path(store))
        engine.add_many(records)
        fresh, x_fresh = make("user-1")
        engine.rotate(fresh)
        engine.revoke("user-2")
        engine.save(store)
        engine.journal.close()
        return store, fresh, x_fresh

    def test_compact_drops_dead_rows_and_rebases_journal(
            self, tmp_path, paper_params, rng, population):
        records, templates, fe, make = population
        store, fresh, x_fresh = self._build(tmp_path, paper_params,
                                            population)
        stats = compact_store(store, shards=2)
        assert stats["rows_dropped"] == 2  # superseded + revoked
        assert stats["rows_kept"] == 3
        assert stats["identities"] == 3
        assert stats["journaled"] is True
        assert stats["journal_base"] == 6  # 4 enrolls + rotate + revoke

        reopened = IdentificationEngine.open(store)
        try:
            assert len(reopened) == 3
            assert reopened.journal_seq() == 6
            assert reopened.journal.base == 6
            assert reopened.journal.entry_format == "typed"
            # Live state is untouched by compaction.
            assert reopened.get("user-1") == fresh
            assert reopened.get("user-2") is None
            probe = _probe(fe, paper_params, x_fresh, rng)
            assert [r.user_id
                    for r in reopened.find_by_sketch(probe)] == ["user-1"]
            # Lifecycle keeps working on the compacted store.
            another, _ = make("user-0", templates["user-0"])
            assert reopened.rotate(another) == 1
            assert reopened.journal_seq() == 7
        finally:
            reopened.journal.close()

    def test_compact_upgrades_record_format_journal(self, tmp_path,
                                                    paper_params,
                                                    population):
        records, _, _, _ = population
        store = tmp_path / "store"
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records)
        # Attach a pre-lifecycle (record format) journal, then save.
        engine.attach_journal(EnrollmentJournal(
            journal_path(store), params=paper_params))
        engine.save(store)
        engine.journal.close()

        compact_store(store, shards=2)
        upgraded = IdentificationEngine.open(store)
        try:
            assert upgraded.journal.entry_format == "typed"
            # Lifecycle ops are accepted now.
            fresh = records[0]
            assert upgraded.revoke("user-3") == 1
        finally:
            upgraded.journal.close()

    def test_standby_parity_through_rotate_revoke_compact_restart(
            self, tmp_path, paper_params, rng, population):
        """The acceptance scenario: a standby that followed the journal
        answers identically to a primary that rotated, revoked,
        compacted, and restarted."""
        records, templates, fe, make = population
        store = tmp_path / "primary"
        primary = IdentificationEngine(paper_params, shards=2,
                                       journal=journal_path(store))
        primary.add_many(records)
        fresh, x_fresh = make("user-1")
        primary.rotate(fresh)
        primary.revoke("user-2")

        # Standby follows the journal (as JournalFollower would, minus
        # the socket) with its own journal for durability.
        standby_journal = tmp_path / "standby" / "journal.log"
        standby = IdentificationEngine(paper_params, shards=2,
                                       journal=standby_journal)
        standby.apply_replicated(primary.journal.read(0))
        standby.journal.close()

        # Primary compacts and restarts from the compacted store.
        primary.save(store)
        primary.journal.close()
        compact_store(store, shards=2)
        restarted = IdentificationEngine.open(store)

        # Standby restarts from its own journal.
        standby2 = IdentificationEngine(
            paper_params, shards=2,
            journal=EnrollmentJournal(standby_journal,
                                      params=paper_params))
        try:
            assert restarted.journal_seq() == standby2.journal_seq() == 6
            # Byte-identical answers over the whole population.
            for uid, template in templates.items():
                probe = _probe(fe, paper_params, template, rng)
                assert [r.user_id
                        for r in restarted.find_by_sketch(probe)] == \
                       [r.user_id for r in standby2.find_by_sketch(probe)]
                assert restarted.get(uid) == standby2.get(uid)
            probe = _probe(fe, paper_params, x_fresh, rng)
            assert [r.user_id for r in restarted.find_by_sketch(probe)] \
                == [r.user_id for r in standby2.find_by_sketch(probe)] \
                == ["user-1"]
        finally:
            restarted.journal.close()
            standby2.journal.close()


class TestStoreCompatShim:
    def test_v1_store_opens_through_shim(self, tmp_path, paper_params,
                                         rng, population,
                                         write_legacy_layout):
        """A pre-lifecycle (format 1) store opens unchanged: statuses
        default to all-active and the operation count to the record
        count."""
        records, templates, fe, _ = population
        store = tmp_path / "store"
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records)
        engine.save(store)

        # Rewrite the directory to the v1 layout: row-major int32 shard
        # files, a format 1 manifest without the lifecycle keys, and no
        # status sidecar.
        write_legacy_layout(
            store, [r.helper().movements for r in records], 1)
        manifest_path = store / "manifest.json"

        shimmed = IdentificationEngine.open(store)
        assert len(shimmed) == len(records)
        assert shimmed.journal_seq() == len(records)
        assert shimmed.journal is None
        for record in records:
            assert shimmed.get(record.user_id) == record
            versions = shimmed.get_versions(record.user_id)
            assert [v.status_name for v in versions] == ["active"]
        probe = _probe(fe, paper_params, templates["user-0"], rng)
        assert [r.user_id for r in shimmed.find_by_sketch(probe)] == \
               ["user-0"]
        # And it round-trips forward: a save writes the current layout.
        shimmed.save(store)
        assert (store / "status.bin").exists()
        assert json.loads(manifest_path.read_text())["format"] == 4

    def test_legacy_helper_blobs_open_replay_and_identify(
            self, tmp_path, paper_params, rng, population,
            write_legacy_layout):
        """A format-2 store and a journal whose records hold legacy
        (int64) helper blobs open, replay and identify; the blobs are
        served byte for byte, and the next save writes format 4."""
        records, templates, fe, _ = population
        legacy = [_legacy_record(record) for record in records]
        assert all(r.helper_data[:1] == b"\x00" for r in legacy)
        store = tmp_path / "store"
        checkpoint = IdentificationEngine(paper_params, shards=2)
        checkpoint.add_many(legacy[:2])
        checkpoint.save(store)
        checkpoint.close()
        journaled = IdentificationEngine.open(store, journal=True)
        for record in legacy[2:]:
            journaled.add(record)
        journaled.journal.close()
        journaled.close()
        write_legacy_layout(
            store, [r.helper().movements for r in legacy[:2]], 2)
        manifest_path = store / "manifest.json"

        reopened = IdentificationEngine.open(store)
        try:
            assert len(reopened) == reopened.journal_seq() == len(legacy)
            for record in legacy:
                assert reopened.get(record.user_id) == record
                template = templates[record.user_id]
                probe = _probe(fe, paper_params, template, rng)
                assert [r.user_id for r in reopened.find_by_sketch(probe)] \
                    == [record.user_id]
                compact = next(r for r in records
                               if r.user_id == record.user_id)
                assert fe.reproduce(template, record.helper()) == \
                    fe.reproduce(template, compact.helper())
            reopened.save(store)
            assert json.loads(manifest_path.read_text())["format"] == 4
        finally:
            reopened.journal.close()
            reopened.close()
        again = IdentificationEngine.open(store)
        try:
            assert [again.get(r.user_id) for r in legacy] == legacy
        finally:
            again.journal.close()
            again.close()


class TestJournalModePersistence:
    def test_tri_state_survives_save_reopen(self, tmp_path, paper_params,
                                            population):
        """The close()/open() round-trip keeps the journal attachment
        tri-state: an engine opened with ``journal=True`` stays
        journaled across a checkpoint+reopen without re-passing the
        flag, and an explicitly unjournaled one stays unjournaled even
        though ``journal.log`` exists."""
        records, _, _, _ = population
        store = tmp_path / "store"
        engine = IdentificationEngine(paper_params, shards=2)
        engine.add_many(records[:2])
        engine.save(store)

        journaled = IdentificationEngine.open(store, journal=True)
        journaled.add(records[2])
        journaled.save(store)
        journaled.close()

        # No flag: the manifest remembers the engine was journaled.
        again = IdentificationEngine.open(store)
        try:
            assert again.journal is not None
            assert len(again) == 3
        finally:
            again.journal.close()

        # journal=False persists too: reopening without a flag must not
        # resurrect the attachment the operator opted out of.
        plain = IdentificationEngine.open(store, journal=False)
        plain.save(store)
        plain.close()
        still_plain = IdentificationEngine.open(store)
        assert still_plain.journal is None
