"""Contract suite run against every storage backend, plus profile selection.

One parametrized battery asserts the :class:`StorageBackend` semantics the
stores above rely on -- bytes-only values, insertion-ordered ``keys()``,
upsert keeping position, prefix scans in key order -- identically for the
in-memory, file and SQLite backends.  A second battery covers what is
specific to the embedded-KV backend (persistence across reopen, many
logical stores sharing one database file) and the ``StorageProfile``
selector behind ``TrustDomain.create(storage=...)``.  A third covers the
storage step the stores write through: what a failed commit leaves behind,
and that stepping changes when records are written, never which.
"""

import contextlib
import gc
import tempfile
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.errors import PersistenceError, StateStoreError
from repro.persistence import storage
from repro.persistence.audit_log import AuditLog
from repro.persistence.evidence_store import EvidenceStore
from repro.persistence.run_journal import RunJournal
from repro.persistence.sqlite_backend import SQLiteBackend
from repro.persistence.state_store import StateStore
from repro.persistence.storage import (
    FileBackend,
    InMemoryBackend,
    StorageProfile,
)

BACKENDS = ["memory", "file", "sqlite"]


@pytest.fixture
def open_backend(request, tmp_path):
    """``open_backend(name)`` opens -- or reopens -- the store called ``name``."""
    kind = request.param
    memory = {}
    opened = []

    def open_(name="store"):
        if kind == "memory":
            return memory.setdefault(name, InMemoryBackend())
        if kind == "file":
            return FileBackend(tmp_path / name)
        opened.append(SQLiteBackend(tmp_path / f"{name}.db"))
        return opened[-1]

    yield open_
    for db in opened:
        db.close()


@pytest.fixture
def backend(open_backend):
    return open_backend()


@pytest.mark.parametrize("open_backend", BACKENDS, indirect=True)
class TestBackendContract:
    def test_put_get_delete_contains(self, backend):
        assert backend.get("k") is None
        backend.put("k", b"v")
        assert backend.get("k") == b"v"
        assert "k" in backend
        backend.delete("k")
        assert backend.get("k") is None
        assert "k" not in backend
        backend.delete("k")  # deleting a missing key is a no-op

    def test_values_must_be_bytes(self, backend):
        with pytest.raises(PersistenceError):
            backend.put("k", "not bytes")

    def test_keys_preserve_insertion_order(self, backend):
        for name in ("c", "a", "b"):
            backend.put(name, b"x")
        assert backend.keys() == ["c", "a", "b"]

    def test_upsert_keeps_position_and_replaces_value(self, backend):
        backend.put("c", b"1")
        backend.put("a", b"2")
        backend.put("c", b"3")
        assert backend.keys() == ["c", "a"]
        assert backend.get("c") == b"3"

    def test_items_iterates_pairs(self, backend):
        backend.put("a", b"1")
        backend.put("b", b"2")
        assert list(backend.items()) == [("a", b"1"), ("b", b"2")]

    def test_scan_keys_sorted_and_filtered(self, backend):
        for key in ("p:2", "q:1", "p:1", "p:10", "pz"):
            backend.put(key, b"x")
        assert backend.scan_keys("p:") == ["p:1", "p:10", "p:2"]

    def test_scan_returns_pairs_in_key_order(self, backend):
        backend.put("p:b", b"2")
        backend.put("p:a", b"1")
        backend.put("q:a", b"3")
        assert list(backend.scan("p:")) == [("p:a", b"1"), ("p:b", b"2")]

    def test_scan_empty_prefix_is_everything(self, backend):
        backend.put("b", b"2")
        backend.put("a", b"1")
        assert backend.scan_keys("") == ["a", "b"]

    def test_scan_stats_counts_and_sizes(self, backend):
        backend.put("p:a", b"12")
        backend.put("p:b", b"345")
        backend.put("q:a", b"6789")
        count, total = backend.scan_stats("p:")
        assert (count, total) == (2, 5)

    def test_scan_prefix_at_char_boundary(self, backend):
        # A prefix ending in 0xFF-adjacent characters must not leak
        # neighbouring keys (the upper scan bound increments the last char).
        backend.put("p", b"0")
        backend.put("p\x7f", b"1")
        backend.put("q", b"2")
        assert backend.scan_keys("p") == ["p", "p\x7f"]


class _PutSpy:
    """A backend that records every batch written through it."""

    def __init__(self, inner):
        self._inner = inner
        self.batches = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def put(self, key, value):
        self.put_many([(key, value)])

    def put_many(self, items):
        self.batches.append(list(items))
        self._inner.put_many(self.batches[-1])


class _LoopingFlaky:
    """A backend that writes a batch put by put and fails the ``fail_at``-th."""

    def __init__(self, inner, fail_at):
        self._inner = inner
        self._puts_left = fail_at

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def put(self, key, value):
        self._puts_left -= 1
        if self._puts_left == 0:
            raise PersistenceError("disk full")
        self._inner.put(key, value)

    def put_many(self, items):
        for key, value in items:
            self.put(key, value)


OWNER = "urn:org:a"


class _Stores:
    """The four stores of one organisation over one backend, on a fixed clock."""

    def __init__(self, backend):
        clock = SimulatedClock(start=5.0)
        self.evidence = EvidenceStore(OWNER, backend, clock)
        self.journal = RunJournal(OWNER, backend)
        self.state = StateStore(OWNER, backend)
        self.audit = AuditLog(OWNER, backend, clock)

    def protocol_step(self, run, version):
        """What one proposer step writes, the journal edge last."""
        self.evidence.store_many(
            run,
            [
                ("nr-decision", {"token_id": f"{run}-d{i}"}, EvidenceStore.ROLE_RECEIVED)
                for i in range(2)
            ],
        )
        self.state.record_version(
            "doc", {"rev": version}, outcome_version=version,
            outcome_record={"run_id": run, "new_version": version},
        )
        self.audit.append("nr.sharing", run, {"event": "update-coordinated"})
        self.journal.record_settled(run, agreed=True)

    def consistent_with(self, backend):
        """Every store's derived state equals what a reopened store derives."""
        fresh = _Stores(backend)
        assert self.evidence.run_ids() == fresh.evidence.run_ids()
        for run in fresh.evidence.run_ids():
            assert self.evidence.evidence_for_run(run) == fresh.evidence.evidence_for_run(run)
        assert self.evidence.total_records() == fresh.evidence.total_records()
        assert self.evidence.storage_bytes() == fresh.evidence.storage_bytes()
        assert self.state.version_count("doc") == fresh.state.version_count("doc")
        assert self.state.latest_digest("doc") == fresh.state.latest_digest("doc")
        assert len(self.audit) == len(fresh.audit)
        assert self.audit.head_digest == fresh.audit.head_digest
        assert self.audit.verify_integrity()
        assert sorted(self.journal.all_runs()) == sorted(fresh.journal.all_runs())


@pytest.mark.parametrize("open_backend", BACKENDS, indirect=True)
class TestWritePathContract:
    """Batched writes are the same writes; history costs O(1) per version."""

    def test_put_many_is_the_puts_in_order(self, open_backend):
        items = [("c", b"1"), ("a", b"2"), ("b", b""), ("a", b"3")]
        batched, looped = open_backend("batched"), open_backend("looped")
        batched.put_many(iter(items))
        for key, value in items:
            looped.put(key, value)
        assert batched.keys() == looped.keys() == ["c", "a", "b"]
        assert batched.scan("") == looped.scan("")
        batched.put_many([])  # an empty batch is a no-op
        assert batched.keys() == ["c", "a", "b"]

    def test_put_many_values_must_be_bytes(self, open_backend):
        with pytest.raises(PersistenceError):
            open_backend().put_many([("k", "not bytes")])

    def test_store_many_is_the_store_calls_in_order(self, open_backend):
        first = [
            ("nr-outcome", {"token_id": "o"}, EvidenceStore.ROLE_RECEIVED),
            ("nr-decision", {"token_id": "d1"}, EvidenceStore.ROLE_RECEIVED),
            ("nr-decision", {"token_id": "d2"}, EvidenceStore.ROLE_GENERATED),
        ]
        second = [("nr-decision", {"token_id": "d3"}, EvidenceStore.ROLE_RECEIVED)]
        batched_backend, looped_backend = open_backend("batched"), open_backend("looped")
        batched = EvidenceStore("urn:org:a", batched_backend, SimulatedClock(start=5.0))
        looped = EvidenceStore("urn:org:a", looped_backend, SimulatedClock(start=5.0))
        for store in (batched, looped):
            store.store("run-0", "nro-update", {"token_id": "u"})
        for entries in (first, [], second):
            batched.store_many("run-1", entries)
            for token_type, token, role in entries:
                looped.store("run-1", token_type, token, role=role)
        assert batched_backend.keys() == looped_backend.keys()  # keys, sequence numbers
        assert batched_backend.scan("") == looped_backend.scan("")  # bytes
        assert batched.evidence_for_run("run-1") == looped.evidence_for_run("run-1")
        assert [r.token["token_id"] for r in batched.evidence_for_run("run-1")] == [
            "o", "d1", "d2", "d3",
        ]
        assert batched.tokens_of_type("run-1", "nr-decision") == looped.tokens_of_type(
            "run-1", "nr-decision"
        )
        assert [
            r.token["token_id"] for r in batched.tokens_of_type("run-1", "nr-decision")
        ] == ["d1", "d2", "d3"]
        assert batched.storage_bytes() == looped.storage_bytes() > 0
        assert batched.total_records() == looped.total_records() == 5
        assert batched.run_ids() == looped.run_ids() == ["run-0", "run-1"]

    def test_store_many_rejects_the_whole_batch_on_a_bad_role(self, open_backend):
        store = EvidenceStore("urn:org:a", open_backend())
        with pytest.raises(PersistenceError):
            store.store_many(
                "run-1",
                [("t", {}, EvidenceStore.ROLE_RECEIVED), ("t", {}, "bystander")],
            )
        assert store.total_records() == 0

    def test_a_batch_that_fails_midway_keeps_its_sequence_numbers(self, open_backend):
        # A backend whose put_many is not atomic keeps the records written
        # before the failure; the next write must not reuse their keys.
        backend = open_backend()
        store = EvidenceStore("urn:org:a", _LoopingFlaky(backend, fail_at=4))
        store.store("run-1", "t", {"token_id": "a"})
        with pytest.raises(PersistenceError, match="disk full"):
            store.store_many(
                "run-1",
                [("t", {"token_id": i}, EvidenceStore.ROLE_RECEIVED) for i in "bcd"],
            )
        store.store("run-1", "u", {"token_id": "e"})
        prefix = "evidence:urn:org:a:run-1:"
        assert backend.keys() == [
            f"{prefix}t:received:0",
            f"{prefix}t:received:1",
            f"{prefix}t:received:2",
            f"{prefix}u:received:3",
        ]
        for view in (store, EvidenceStore("urn:org:a", backend)):
            assert [r.token["token_id"] for r in view.evidence_for_run("run-1")] == [
                "a", "b", "c", "e",
            ]
            assert [r.token["token_id"] for r in view.tokens_of_type("run-1", "t")] == [
                "a", "b", "c",
            ]
            assert view.total_records() == 4
            assert view.storage_bytes() == sum(len(v) for _, v in backend.scan(""))

    def test_long_history_reopens_intact_and_costs_the_same_per_version(
        self, open_backend
    ):
        backend = _PutSpy(open_backend("state"))
        store = StateStore("urn:org:a", backend)
        states = [{"rev": f"{version:04d}"} for version in range(300)]
        digests = [store.record_version("doc", state)[1] for state in states]
        store.record_version("other:doc", {"rev": 0})
        assert len(backend.batches) == 301  # one backend write per version

        def written(version):  # bytes put for one version: snapshot + history
            return sum(len(key) + len(value) for key, value in backend.batches[version])

        assert written(299) == written(1)

        reopened = StateStore("urn:org:a", open_backend("state"))
        assert reopened.object_ids() == ["doc", "other:doc"]
        assert reopened.version_count("doc") == 300
        assert reopened.latest_digest("doc") == digests[-1]
        for version, (state, digest) in enumerate(zip(states, digests)):
            assert reopened.version_digest("doc", version) == digest
            assert reopened.state_at_version("doc", version) == state
        assert reopened.is_agreed_state("doc", {"rev": "0073"})
        assert not reopened.is_agreed_state("doc", {"rev": "0300"})
        assert reopened.record_version("doc", {"rev": "next"})[0] == 300

    def test_a_store_in_the_earlier_history_layout_is_refused_by_name(
        self, open_backend
    ):
        # Before per-version entries the whole digest list sat under one key.
        backend = open_backend("state")
        backend.put("state:urn:org:a:history:doc", b'[{"__bytes__":"00"}]')
        with pytest.raises(StateStoreError, match="earlier one-list-per-object layout"):
            StateStore("urn:org:a", backend)
        StateStore("urn:org:b", backend)  # another owner's store is unaffected

    def test_outcome_record_rides_the_version_write(self, open_backend):
        store = StateStore("urn:org:a", open_backend("state"))
        store.record_version("doc", {"rev": 0})
        record = {"run_id": "run-1", "new_version": 7, "decisions": []}
        store.record_version("doc", {"rev": 1}, outcome_version=7, outcome_record=record)
        reopened = StateStore("urn:org:a", open_backend("state"))
        assert reopened.outcome_record("doc", 7) == record
        assert reopened.outcome_record("doc", 1) is None
        assert reopened.version_count("doc") == 2

    def test_a_step_is_one_batch_per_backend_in_write_order(self, open_backend):
        backend = _PutSpy(open_backend())
        stores = _Stores(backend)
        with storage.step():
            stores.protocol_step("run-1", 0)
            assert stores.evidence.total_records() == 2  # reads see the step
            assert stores.audit.record(0).subject == "run-1"
            assert storage.pending_records() == 0  # the journal edge committed
            stores.audit.append("nr.sharing", "run-1", {"event": "tail"})
            assert backend.batches[1:] == []
        first, tail = backend.batches
        assert [key.split(":", 1)[0] for key, _ in first] == (
            ["evidence"] * 2 + ["state"] * 3 + ["audit", "runjournal"]
        )
        assert [key for key, _ in tail] == [f"audit:{OWNER}:000000000001"]
        stores.consistent_with(backend)

    def test_a_commit_the_backend_refuses_leaves_nothing_behind(self, open_backend):
        class Refusing(_PutSpy):
            refuse = False

            def put_many(self, items):
                if self.refuse:
                    raise PersistenceError("disk full")
                super().put_many(items)

        inner = open_backend()
        backend = Refusing(inner)
        stores = _Stores(backend)
        stores.protocol_step("run-0", 0)
        before = inner.scan("")
        backend.refuse = True
        with pytest.raises(PersistenceError, match="disk full"):
            with storage.step():
                stores.protocol_step("run-1", 1)  # raises at the journal edge
        assert storage.pending_records() == 0
        assert inner.scan("") == before
        stores.consistent_with(inner)
        assert stores.state.version_count("doc") == 1 and len(stores.audit) == 1
        backend.refuse = False
        with storage.step():
            stores.protocol_step("run-1", 1)  # same keys as the refused attempt
        assert f"evidence:{OWNER}:run-1:nr-decision:received:0" in inner.keys()
        assert f"audit:{OWNER}:000000000001" in inner.keys()
        stores.consistent_with(inner)

    @pytest.mark.parametrize("fail_at", [1, 2, 4, 6, 7])
    def test_a_looping_backend_that_fails_in_a_step_keeps_the_written_prefix(
        self, open_backend, fail_at
    ):
        inner = open_backend()
        reference = _Stores(InMemoryBackend())
        reference.protocol_step("run-1", 0)
        expected = reference.evidence._backend.keys()[: fail_at - 1]  # noqa: SLF001
        stores = _Stores(_LoopingFlaky(inner, fail_at=fail_at))
        with pytest.raises(PersistenceError, match="disk full"):
            with storage.step():
                stores.protocol_step("run-1", 0)
        assert inner.keys() == expected
        stores.consistent_with(inner)
        # The next step neither reuses a kept sequence number nor skips one.
        stores.evidence.store("run-1", "nr-outcome", {"token_id": "o"})
        assert inner.keys()[-1].endswith(f":nr-outcome:received:{min(fail_at - 1, 2)}")

    def test_an_audit_log_reopened_over_a_gap_ends_before_it(self, open_backend):
        # Two threads' steps commit in either order; a crash between them can
        # persist a later index without an earlier one.
        backend = open_backend()
        log = AuditLog(OWNER, backend)
        for subject in ("s0", "s1", "s2"):
            log.append("nr.sharing", subject)
        backend.delete(f"audit:{OWNER}:000000000001")
        reopened = AuditLog(OWNER, backend)
        assert len(reopened) == 1 and reopened.verify_integrity()
        reopened.append("nr.sharing", "again")
        assert [record.subject for record in reopened.records()] == ["s0", "again"]

    def test_a_dropped_store_is_freed_without_a_cycle_collection(self, open_backend):
        # A cold reader opens a store per audit batch and drops it: its
        # decoded records must go with it, not wait for a full collection.
        backend = open_backend()
        gc.disable()
        try:
            for make in (EvidenceStore, AuditLog, StateStore):
                dropped = weakref.ref(make(OWNER, backend))
                assert dropped() is None, make
        finally:
            gc.enable()

    def test_the_error_reaches_whoever_leaves_the_step(self, open_backend):
        stores = _Stores(_LoopingFlaky(open_backend(), fail_at=1))
        with pytest.raises(PersistenceError, match="disk full"):
            with storage.step():
                stores.audit.append("nr.sharing", "run-1")  # no error yet
        assert len(stores.audit) == 0 and stores.audit.verify_integrity()


_STORE_CALLS = st.lists(
    st.tuples(
        st.sampled_from(["evidence", "evidence-batch", "state", "audit", "journal"]),
        st.integers(min_value=0, max_value=2),  # which run / object
        st.sampled_from(["outside", "open", "close"]),  # step boundary before it
    ),
    max_size=14,
)


def _apply(stores, calls, stepping):
    """Run ``calls`` against ``stores``, honouring step boundaries iff ``stepping``."""
    with contextlib.ExitStack() as steps:
        for index, (call, which, boundary) in enumerate(calls):
            if stepping and boundary == "open":
                steps.enter_context(storage.step())  # nests when one is open
            elif stepping and boundary == "close":
                steps.close()
            run = f"run-{which}"
            if call == "evidence":
                stores.evidence.store(run, "nr-decision", {"token_id": index})
            elif call == "evidence-batch":
                stores.evidence.store_many(
                    run,
                    [("t", {"token_id": f"{index}-{i}"}, "generated") for i in range(3)],
                )
            elif call == "state":
                stores.state.record_version(
                    f"doc-{which}", {"rev": index}, index, {"run_id": run}
                )
            elif call == "audit":
                stores.audit.append("nr.sharing", run, {"index": index})
            else:
                stores.journal.record_proposed(
                    run, kind="update", object_id="doc", proposer=OWNER,
                    peers=[], proposal={"index": index},
                )
            # A store reads its own writes back, committed or not.
            assert stores.audit.verify_integrity()
            assert stores.evidence.total_records() == sum(
                len(stores.evidence.evidence_for_run(r)) for r in stores.evidence.run_ids()
            )


@pytest.mark.parametrize("kind", BACKENDS)
@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(calls=_STORE_CALLS)
def test_stepping_changes_when_records_are_written_never_which(kind, calls):
    def open_(directory, name):
        if kind == "memory":
            return InMemoryBackend()
        if kind == "file":
            return FileBackend(f"{directory}/{name}")
        return SQLiteBackend(f"{directory}/{name}.db")

    with tempfile.TemporaryDirectory() as directory:
        stepped, plain = open_(directory, "stepped"), open_(directory, "plain")
        try:
            _apply(_Stores(stepped), calls, stepping=True)
            _apply(_Stores(plain), calls, stepping=False)
            assert storage.pending_records() == 0
            assert stepped.keys() == plain.keys()  # keys, insertion order
            assert stepped.scan("") == plain.scan("")  # bytes
            _Stores(stepped).consistent_with(plain)
        finally:
            for backend in (stepped, plain):
                if kind == "sqlite":
                    backend.close()


class TestSQLiteBackend:
    def test_put_many_is_all_or_nothing(self, tmp_path):
        with SQLiteBackend(tmp_path / "kv.db") as db:
            db.put("kept", b"before")
            # Rejected before the transaction, and rejected inside it (NULL
            # key): neither leaves any of its batch visible.
            for bad in (("k2", "not bytes"), (None, b"v")):
                with pytest.raises(PersistenceError):
                    db.put_many([("k1", b"v1"), ("kept", b"after"), bad, ("k3", b"v3")])
                assert db.keys() == ["kept"]
                assert db.get("kept") == b"before"
            db.put_many([("k1", b"v1")])  # the connection is still usable
            assert db.keys() == ["kept", "k1"]

    def test_sqlite_errors_surface_as_persistence_errors(self, tmp_path):
        db = SQLiteBackend(tmp_path / "kv.db")
        db.put("k", b"v")
        db.close()
        for call in (
            lambda: db.get("k"),
            lambda: db.delete("k"),
            lambda: db.keys(),
            lambda: db.scan("k"),
            lambda: db.scan_keys("k"),
            lambda: db.scan_stats("k"),
            lambda: db.put("k", b"v"),
        ):
            with pytest.raises(PersistenceError):
                call()

    def test_supports_prefix_scan_flag(self, tmp_path):
        with SQLiteBackend(tmp_path / "s.db") as db:
            assert db.supports_prefix_scan
        assert not InMemoryBackend().supports_prefix_scan

    def test_reopen_preserves_data_and_order(self, tmp_path):
        path = tmp_path / "s.db"
        with SQLiteBackend(path) as db:
            db.put("c", b"1")
            db.put("a", b"2")
        with SQLiteBackend(path) as db:
            assert db.keys() == ["c", "a"]
            assert db.get("a") == b"2"

    def test_two_handles_share_one_file(self, tmp_path):
        path = tmp_path / "s.db"
        with SQLiteBackend(path) as one, SQLiteBackend(path) as two:
            one.put("k", b"from-one")
            assert two.get("k") == b"from-one"
            two.put("k", b"from-two")
            assert one.get("k") == b"from-two"

    def test_creates_parent_directories(self, tmp_path):
        with SQLiteBackend(tmp_path / "deep" / "er" / "s.db") as db:
            db.put("k", b"v")
            assert db.get("k") == b"v"


class TestStorageProfile:
    def test_parse_memory(self):
        profile = StorageProfile.parse("memory")
        assert profile.kind == "memory"

    def test_parse_file_and_sqlite_locations(self, tmp_path):
        assert StorageProfile.parse(f"file:{tmp_path}").kind == "file"
        assert StorageProfile.parse(f"sqlite:{tmp_path}/x.db").kind == "sqlite"

    @pytest.mark.parametrize(
        "bad", ["", "postgres:db", "file", "file:", "sqlite:", "mem"]
    )
    def test_parse_rejects_unknown_profiles(self, bad):
        with pytest.raises(PersistenceError):
            StorageProfile.parse(bad)

    def test_memory_backends_are_fresh_per_store(self):
        profile = StorageProfile.parse("memory")
        a = profile.backend_for("urn:org:a", "evidence")
        b = profile.backend_for("urn:org:a", "evidence")
        a.put("k", b"v")
        assert b.get("k") is None

    def test_file_backends_are_isolated_per_owner_and_store(self, tmp_path):
        profile = StorageProfile.parse(f"file:{tmp_path}")
        a_ev = profile.backend_for("urn:org:a", "evidence")
        a_au = profile.backend_for("urn:org:a", "audit")
        b_ev = profile.backend_for("urn:org:b", "evidence")
        a_ev.put("k", b"1")
        assert a_au.get("k") is None
        assert b_ev.get("k") is None

    def test_sqlite_evidence_store_reopen_does_no_index_rebuild(self, tmp_path):
        # Non-scan backends pay an O(all records) rebuild at open: every
        # key enumerated, every record fetched and decoded.  A scan-backed
        # store must open cold and touch only what is queried.
        from repro.persistence.evidence_store import EvidenceStore

        class SpyBackend(SQLiteBackend):
            def __init__(self, path):
                super().__init__(path)
                self.keys_calls = 0
                self.get_calls = 0

            def keys(self):
                self.keys_calls += 1
                return super().keys()

            def get(self, key):
                self.get_calls += 1
                return super().get(key)

        path = tmp_path / "evidence.db"
        with SpyBackend(path) as backend:
            store = EvidenceStore(owner="urn:org:a", backend=backend)
            for run in ("run:1", "run:2"):
                for token_type in ("NRO", "NRR"):
                    store.store(run, token_type, {"body": f"{run}/{token_type}"})
        with SpyBackend(path) as backend:
            store = EvidenceStore(owner="urn:org:a", backend=backend)
            assert backend.keys_calls == 0  # no full enumeration at open
            assert backend.get_calls == 0  # no per-record fetch at open
            records = store.tokens_of_type("run:1", "NRO")
            assert [r.token["body"] for r in records] == ["run:1/NRO"]
            assert backend.keys_calls == 0  # queries scan, never enumerate

    def test_sqlite_backends_share_one_database(self, tmp_path):
        profile = StorageProfile.parse(f"sqlite:{tmp_path}/kv.db")
        a = profile.backend_for("urn:org:a", "evidence")
        b = profile.backend_for("urn:org:b", "audit")
        # One connection per owner: an owner's step is one transaction.
        assert profile.backend_for("urn:org:a", "audit") is a
        assert b is not a
        a.put("k", b"v")
        assert b.get("k") == b"v"  # one shared KV; key prefixes namespace it
        assert a.supports_prefix_scan
