"""Unit tests for storage backends, audit log, evidence store and state store."""

import pytest

from repro.clock import SimulatedClock
from repro.errors import (
    AuditLogError,
    AuditLogTamperedError,
    PersistenceError,
    StateStoreError,
)
from repro.persistence.audit_log import AuditLog, AuditRecord
from repro.persistence.evidence_store import EvidenceStore
from repro.persistence.state_store import StateStore
from repro.persistence.storage import FileBackend, InMemoryBackend


class TestInMemoryBackend:
    def test_put_get_delete(self):
        backend = InMemoryBackend()
        backend.put("key", b"value")
        assert backend.get("key") == b"value"
        assert "key" in backend
        backend.delete("key")
        assert backend.get("key") is None

    def test_keys_preserve_insertion_order(self):
        backend = InMemoryBackend()
        for name in ("c", "a", "b"):
            backend.put(name, b"x")
        assert backend.keys() == ["c", "a", "b"]

    def test_values_must_be_bytes(self):
        with pytest.raises(PersistenceError):
            InMemoryBackend().put("key", "not bytes")

    def test_items_iterates_pairs(self):
        backend = InMemoryBackend()
        backend.put("a", b"1")
        backend.put("b", b"2")
        assert dict(backend.items()) == {"a": b"1", "b": b"2"}


class TestFileBackend:
    def test_roundtrip_and_persistence(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = FileBackend(directory)
        backend.put("record:1", b"payload-1")
        backend.put("record:2", b"payload-2")
        # A new backend over the same directory sees the same data and order.
        reopened = FileBackend(directory)
        assert reopened.get("record:1") == b"payload-1"
        assert reopened.keys() == ["record:1", "record:2"]

    def test_overwrite_does_not_duplicate_index(self, tmp_path):
        backend = FileBackend(str(tmp_path / "store"))
        backend.put("key", b"one")
        backend.put("key", b"two")
        assert backend.keys() == ["key"]
        assert backend.get("key") == b"two"

    def test_delete_removes_record_and_index_entry(self, tmp_path):
        backend = FileBackend(str(tmp_path / "store"))
        backend.put("a", b"1")
        backend.put("b", b"2")
        backend.delete("a")
        assert backend.keys() == ["b"]
        assert backend.get("a") is None

    def test_unusual_key_characters(self, tmp_path):
        backend = FileBackend(str(tmp_path / "store"))
        key = "evidence:urn:org/a:run 1?*"
        backend.put(key, b"v")
        assert backend.get(key) == b"v"
        assert backend.keys() == [key]


class TestFileBackendCrashAtomicity:
    """A process killed mid-write must never corrupt or resurrect records."""

    def test_leftover_temp_files_are_swept_and_never_served(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = FileBackend(directory)
        backend.put("key", b"committed")
        # Simulate a writer killed between temp-write and rename.
        temp = tmp_path / "store" / (bytes("key", "utf-8").hex() + ".rec.tmp")
        temp.write_bytes(b"torn half-write")
        orphan = tmp_path / "store" / "deadbeef.rec.tmp"
        orphan.write_bytes(b"unrelated torn write")
        reopened = FileBackend(directory)
        assert reopened.get("key") == b"committed"
        assert reopened.keys() == ["key"]
        assert not temp.exists()
        assert not orphan.exists()

    def test_torn_trailing_index_line_is_ignored_not_fatal(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = FileBackend(directory)
        backend.put("a", b"1")
        backend.put("b", b"2")
        # Simulate a crash that tore the last index append mid-line: the
        # trailing entry is not valid hex and has no newline.
        with open(tmp_path / "store" / "_index", "ab") as index_file:
            index_file.write(b"6q")  # not hex -> torn
        reopened = FileBackend(directory)
        assert reopened.keys() == ["a", "b"]
        assert reopened.get("a") == b"1"
        # The reopened backend keeps working past the torn line.
        reopened.put("c", b"3")
        assert FileBackend(directory).keys() == ["a", "b", "c"]

    def test_record_file_without_index_entry_reads_as_never_written(
        self, tmp_path
    ):
        directory = str(tmp_path / "store")
        backend = FileBackend(directory)
        backend.put("kept", b"v")
        # Simulate a crash after the record rename but before the index
        # append committed the put.
        ghost = tmp_path / "store" / (bytes("ghost", "utf-8").hex() + ".rec")
        ghost.write_bytes(b"uncommitted")
        reopened = FileBackend(directory)
        assert reopened.get("ghost") is None
        assert reopened.keys() == ["kept"]

    def test_index_entry_without_record_file_is_skipped(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = FileBackend(directory)
        backend.put("real", b"v")
        # An entry whose record file vanished (e.g. a crash mid-delete after
        # the old index was replaced by an older snapshot) must not be served.
        with open(tmp_path / "store" / "_index", "ab") as index_file:
            index_file.write(bytes("gone", "utf-8").hex().encode() + b"\n")
        reopened = FileBackend(directory)
        assert reopened.keys() == ["real"]
        assert reopened.get("gone") is None

    def test_delete_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = FileBackend(directory)
        backend.put("a", b"1")
        backend.put("b", b"2")
        backend.delete("a")
        reopened = FileBackend(directory)
        assert reopened.keys() == ["b"]
        assert reopened.get("a") is None


class TestAuditLog:
    def test_append_and_read_back(self):
        log = AuditLog("urn:org:a", clock=SimulatedClock(start=7.0))
        record = log.append("category", "subject-1", {"detail": 1})
        assert record.index == 0
        assert record.timestamp == 7.0
        assert log.record(0).details == {"detail": 1}
        assert len(log) == 1

    def test_filtering_by_category_and_subject(self):
        log = AuditLog("urn:org:a")
        log.append("cat.a", "run-1", {})
        log.append("cat.b", "run-1", {})
        log.append("cat.a", "run-2", {})
        assert len(log.records(category="cat.a")) == 2
        assert len(log.records(subject="run-1")) == 2
        assert len(log.records(category="cat.a", subject="run-2")) == 1

    def test_empty_category_rejected(self):
        with pytest.raises(AuditLogError):
            AuditLog("urn:org:a").append("", "subject")

    def test_missing_record_raises(self):
        with pytest.raises(AuditLogError):
            AuditLog("urn:org:a").record(3)

    def test_integrity_verification_passes_for_untouched_log(self):
        log = AuditLog("urn:org:a")
        for i in range(10):
            log.append("cat", f"run-{i}", {"i": i})
        assert log.verify_integrity()
        log.require_integrity()

    def test_tampering_with_backend_is_detected(self):
        backend = InMemoryBackend()
        log = AuditLog("urn:org:a", backend=backend)
        log.append("cat", "run-1", {"amount": 100})
        log.append("cat", "run-2", {"amount": 200})
        key = backend.keys()[0]
        tampered = backend.get(key).replace(b"100", b"999")
        backend.put(key, tampered)
        assert not log.verify_integrity()
        with pytest.raises(AuditLogTamperedError):
            log.require_integrity()

    def test_deleting_backend_record_is_detected(self):
        backend = InMemoryBackend()
        log = AuditLog("urn:org:a", backend=backend)
        log.append("cat", "run-1")
        log.append("cat", "run-2")
        backend.delete(backend.keys()[0])
        assert not log.verify_integrity()

    def test_replay_from_existing_backend(self):
        backend = InMemoryBackend()
        original = AuditLog("urn:org:a", backend=backend)
        original.append("cat", "run-1")
        original.append("cat", "run-2")
        reopened = AuditLog("urn:org:a", backend=backend)
        assert len(reopened) == 2
        assert reopened.verify_integrity()
        assert reopened.head_digest == original.head_digest

    def test_head_digest_changes_with_appends(self):
        log = AuditLog("urn:org:a")
        first = log.head_digest
        log.append("cat", "run")
        assert log.head_digest != first

    def test_audit_record_roundtrip(self):
        record = AuditRecord(index=3, category="c", subject="s", timestamp=1.0, details={"k": 1})
        assert AuditRecord.from_dict(record.to_dict()) == record


class TestEvidenceStore:
    def test_store_and_retrieve_by_run(self):
        store = EvidenceStore("urn:org:a", clock=SimulatedClock(start=1.0))
        store.store("run-1", "nro-request", {"token_id": "t1"}, role=store.ROLE_GENERATED)
        store.store("run-1", "nrr-request", {"token_id": "t2"}, role=store.ROLE_RECEIVED)
        store.store("run-2", "nro-request", {"token_id": "t3"})
        records = store.evidence_for_run("run-1")
        assert [r.token_type for r in records] == ["nro-request", "nrr-request"]
        assert store.run_ids() == ["run-1", "run-2"]
        assert store.total_records() == 3

    def test_tokens_of_type_filters(self):
        store = EvidenceStore("urn:org:a")
        store.store("run-1", "nro-request", {"token_id": "t1"})
        store.store("run-1", "nrr-request", {"token_id": "t2"})
        only = store.tokens_of_type("run-1", "nrr-request")
        assert len(only) == 1
        assert only[0].token["token_id"] == "t2"

    def test_invalid_role_rejected(self):
        with pytest.raises(PersistenceError):
            EvidenceStore("urn:org:a").store("run", "type", {}, role="bystander")

    def test_storage_bytes_grow_with_records(self):
        store = EvidenceStore("urn:org:a")
        store.store("run-1", "nro-request", {"payload": "x" * 10})
        small = store.storage_bytes()
        store.store("run-1", "nro-response", {"payload": "x" * 1000})
        assert store.storage_bytes() > small

    def test_rebuild_index_from_backend(self):
        backend = InMemoryBackend()
        store = EvidenceStore("urn:org:a", backend=backend)
        store.store("run-1", "nro-request", {"token_id": "t1"})
        reopened = EvidenceStore("urn:org:a", backend=backend)
        assert reopened.run_ids() == ["run-1"]
        assert len(reopened.evidence_for_run("run-1")) == 1

    def test_rebuild_index_restores_storage_order(self):
        # Backend keys() order is insertion order of that backend instance,
        # not necessarily the original storage order: a rebuilt index must
        # order records by the sequence suffix baked into each key.
        backend = InMemoryBackend()
        store = EvidenceStore("urn:org:a", backend=backend)
        types = ["nro-request", "nrr-request", "nro-response", "nrr-response"]
        for token_type in types:
            store.store("run-1", token_type, {"token_id": token_type})
        shuffled = InMemoryBackend()
        for key in reversed(backend.keys()):
            shuffled.put(key, backend.get(key))
        reopened = EvidenceStore("urn:org:a", backend=shuffled)
        assert [r.token_type for r in reopened.evidence_for_run("run-1")] == types
        # New records continue the per-run sequence after a rebuild.
        reopened.store("run-1", "nr-outcome", {"token_id": "t5"})
        assert [r.token_type for r in reopened.evidence_for_run("run-1")][-1] == (
            "nr-outcome"
        )

    def test_storage_bytes_matches_backend_contents(self):
        # storage_bytes is O(1) (a running total); it must stay equal to the
        # actual backend byte count, including after an index rebuild.
        backend = InMemoryBackend()
        store = EvidenceStore("urn:org:a", backend=backend)
        for index in range(4):
            store.store("run-1", "nro-request", {"payload": "x" * (10 * index)})
        expected = sum(len(backend.get(key)) for key in backend.keys())
        assert store.storage_bytes() == expected
        reopened = EvidenceStore("urn:org:a", backend=backend)
        assert reopened.storage_bytes() == expected

    def test_tokens_of_type_uses_type_index(self):
        store = EvidenceStore("urn:org:a")
        for index in range(3):
            store.store("run-1", "nro-request", {"token_id": f"req-{index}"})
            store.store("run-1", "nr-decision", {"token_id": f"dec-{index}"})
        decisions = store.tokens_of_type("run-1", "nr-decision")
        assert [r.token["token_id"] for r in decisions] == ["dec-0", "dec-1", "dec-2"]
        assert store.tokens_of_type("run-1", "nr-outcome") == []

    def test_decoded_records_are_memoised(self):
        # Writing keeps no decoded copy; the first read decodes the record
        # from the backend and later reads are served from the memo.
        class CountingBackend(InMemoryBackend):
            gets = 0

            def get(self, key):
                self.gets += 1
                return super().get(key)

        backend = CountingBackend()
        store = EvidenceStore("urn:org:a", backend=backend)
        store.store("run-1", "nro-request", {"token_id": "t1"})
        assert backend.gets == 0
        first = store.evidence_for_run("run-1")
        assert backend.gets == 1
        second = store.tokens_of_type("run-1", "nro-request")
        assert backend.gets == 1
        assert first[0] is second[0]  # decoded once, served from the memo

    def test_store_splices_a_token_that_carries_its_encoding(self, monkeypatch):
        from repro import codec
        from repro.core.evidence import EvidenceBuilder, EvidenceToken, TokenType
        from repro.crypto.signature import Signer, get_scheme

        builder = EvidenceBuilder(
            party="urn:org:a",
            signer=Signer(get_scheme("rsa").generate_keypair(bits=512).private),
            clock=SimulatedClock(start=3.0),
        )
        token = builder.build(
            TokenType.NRO_REQUEST, "run-1", 1, "urn:org:b", {"x": 1}, {"nonce": b"\x01"}
        )

        def forbidden(self):
            raise AssertionError("the write path must not rebuild the token's dict")

        monkeypatch.setattr(EvidenceToken, "to_dict", forbidden)
        backend = InMemoryBackend()
        store = EvidenceStore("urn:org:a", backend=backend, clock=SimulatedClock(7.5))
        store.store("run-1", token.token_type, token, role=store.ROLE_GENERATED)
        store.store_many("run-1", [(token.token_type, token, store.ROLE_RECEIVED)])
        generated, received = (backend.get(key) for key in backend.keys())
        assert generated == codec.encode(
            {
                "run_id": "run-1",
                "token_type": "nro-request",
                "role": "generated",
                "stored_at": 7.5,
                "token": token.data_encoded(),
            }
        )
        assert received == generated.replace(b'"generated"', b'"received"')
        (first, second) = store.evidence_for_run("run-1")
        assert EvidenceToken.from_stored(first) == token

    def test_unknown_run_returns_empty(self):
        assert EvidenceStore("urn:org:a").evidence_for_run("missing") == []


class TestStateStore:
    def test_store_and_resolve_digest(self):
        store = StateStore("urn:org:a")
        digest = store.store_state({"doc": "v1", "amount": 3})
        assert store.resolve_digest(digest) == {"doc": "v1", "amount": 3}
        assert store.has_digest(digest)

    def test_equal_states_share_digest(self):
        store = StateStore("urn:org:a")
        assert store.store_state({"a": 1, "b": 2}) == store.store_state({"b": 2, "a": 1})

    def test_missing_digest_raises(self):
        with pytest.raises(StateStoreError):
            StateStore("urn:org:a").resolve_digest(b"\x00" * 32)

    def test_version_history(self):
        store = StateStore("urn:org:a")
        v0, d0 = store.record_version("doc", {"rev": 0})
        v1, d1 = store.record_version("doc", {"rev": 1})
        assert (v0, v1) == (0, 1)
        assert store.version_count("doc") == 2
        assert store.state_at_version("doc", 0) == {"rev": 0}
        assert store.state_at_version("doc", 1) == {"rev": 1}
        assert store.latest_digest("doc") == d1
        assert store.version_digest("doc", 0) == d0

    def test_is_agreed_state(self):
        store = StateStore("urn:org:a")
        store.record_version("doc", {"rev": 0})
        assert store.is_agreed_state("doc", {"rev": 0})
        assert not store.is_agreed_state("doc", {"rev": 99})

    def test_unknown_version_raises(self):
        store = StateStore("urn:org:a")
        store.record_version("doc", {"rev": 0})
        with pytest.raises(StateStoreError):
            store.version_digest("doc", 5)

    def test_latest_digest_none_for_unknown_object(self):
        assert StateStore("urn:org:a").latest_digest("missing") is None

    def test_object_ids_listed(self):
        store = StateStore("urn:org:a")
        store.record_version("b-doc", {})
        store.record_version("a-doc", {})
        assert store.object_ids() == ["a-doc", "b-doc"]

    def test_history_survives_reopen_and_a_gap_fails_closed(self):
        backend = InMemoryBackend()
        store = StateStore("urn:org:a", backend=backend)
        for rev in range(3):
            store.record_version("doc", {"rev": rev})
        reopened = StateStore("urn:org:a", backend=backend)
        assert reopened.version_count("doc") == 3
        assert reopened.latest_digest("doc") == store.latest_digest("doc")
        assert StateStore("urn:org:b", backend=backend).object_ids() == []
        backend.delete("state:urn:org:a:history:doc:000000000001")
        with pytest.raises(StateStoreError):
            StateStore("urn:org:a", backend=backend)

    def test_digest_of_matches_store_state(self):
        store = StateStore("urn:org:a")
        state = {"x": [1, 2, 3]}
        assert store.store_state(state) == StateStore.digest_of(state)
