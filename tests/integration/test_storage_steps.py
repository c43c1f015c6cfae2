"""One backend commit per protocol step, seen from a whole deployment.

``tests/unit/test_storage_contract.py`` pins what a storage step does to the
stores; this file pins where the protocols open and commit one: nothing of a
sender is pending when its message is admitted to a network, a journal edge
is durable -- with everything its step wrote before it -- when the failpoint
after it fires, steps belong to threads, and a durable 5-party update is at
most twelve SQLite transactions over five connections.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro import TrustDomain, codec
from repro.clock import SimulatedClock, SystemClock
from repro.container.component import ComponentDescriptor
from repro.core.config import (
    DomainConfig,
    DurabilityConfig,
    FaultConfig,
    TransportConfig,
)
from repro.core.evidence import TokenType
from repro.core.sharing import set_run_fault_injector
from repro.core.validators import RejectAllValidator
from repro.faults import FaultPlan, FaultRule
from repro.persistence import storage
from repro.persistence.audit_log import AuditLog
from repro.persistence.evidence_store import EvidenceStore
from repro.persistence.sqlite_backend import SQLiteBackend
from repro.persistence.storage import InMemoryBackend
from repro.transport.network import ParallelDispatch, SimulatedNetwork
from repro.transport.wire import WireTransport
from repro.transport.wire.network import WireNetwork

OBJECT_ID = "doc"


def uris(count):
    return [f"urn:org:s{index}" for index in range(count)]


@pytest.fixture
def admissions(monkeypatch):
    """Every network admission: ``(thread id, records the sender had pending)``."""
    seen = []
    for network in (SimulatedNetwork, WireNetwork):
        for name in ("send", "send_batch"):
            original = getattr(network, name)

            def admitted(self, *args, _original=original, **kwargs):
                seen.append((threading.get_ident(), storage.pending_records()))
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(network, name, admitted)
    return seen


def durable(**transport):
    return DomainConfig(
        transport=TransportConfig(**transport),
        durability=DurabilityConfig(durable_runs=True, durable_state=True),
    )


class TestNothingPendingWhenAMessageLeaves:
    def test_agreed_vetoed_and_aborted_runs(self, admissions):
        domain = TrustDomain.create(uris(3), config=durable(clock=SimulatedClock()))
        domain.share_object(OBJECT_ID, {"n": 0})
        a, b, c = (domain.organisation(uri) for uri in uris(3))
        assert a.propose_update(OBJECT_ID, {"n": 1}).agreed
        c.controller.add_validator(OBJECT_ID, RejectAllValidator())
        assert not b.propose_update(OBJECT_ID, {"n": 2}).agreed
        domain.network.partition.sever(a.uri, b.uri)
        future = a.propose_update_async(OBJECT_ID, {"n": 3})
        assert future.abort("operator gave up")
        assert not future.result(timeout=30).agreed
        # Two rounds of two waves; the aborted one's proposal and its notices.
        assert len(admissions) == 6
        assert {pending for _, pending in admissions} == {0}

    def test_invocation(self, admissions):
        domain = TrustDomain.create(uris(2), config=durable())
        client, server = (domain.organisation(uri) for uri in uris(2))
        server.deploy(_Quotes(), ComponentDescriptor(name="Quotes", non_repudiation=True))
        outcome = client.invoke_non_repudiably(server.uri, "Quotes", "quote", ["x"])
        assert outcome.value == "x!"
        assert len(admissions) == 2
        assert {pending for _, pending in admissions} == {0}

    def test_retry_waves_resumed_off_the_calling_thread(self, admissions):
        plan = FaultPlan(
            rules=(FaultRule("drop", probability=0.25),), seed=23, name="steps-lossy"
        )
        config = durable(clock=SystemClock())  # resumed runs hop to the executor
        config.faults = FaultConfig(plan=plan)
        domain = TrustDomain.create(uris(5), config=config)
        domain.share_object(OBJECT_ID, {"n": 0})
        proposer = domain.organisation(uris(5)[0])
        for value in range(1, 13):
            assert proposer.propose_update(OBJECT_ID, {"n": value}).agreed
        assert domain.network.statistics.messages_dropped > 0
        assert len({thread for thread, _ in admissions}) > 1
        assert {pending for _, pending in admissions} == {0}
        assert {
            domain.organisation(uri).shared_version(OBJECT_ID) for uri in uris(5)
        } == {12}

    def test_parallel_dispatch(self, admissions):
        dispatch = ParallelDispatch(max_workers=4)
        try:
            domain = TrustDomain.create(uris(5), config=durable(dispatch=dispatch))
            domain.share_object(OBJECT_ID, {"n": 0})
            proposer = domain.organisation(uris(5)[0])
            for value in (1, 2, 3):
                assert proposer.propose_update(OBJECT_ID, {"n": value}).agreed
        finally:
            dispatch.close()
        assert {pending for _, pending in admissions} == {0}
        for uri in uris(5):
            organisation = domain.organisation(uri)
            assert organisation.audit_log.verify_integrity()
            assert organisation.shared_version(OBJECT_ID) == 3

    def test_loopback_wire(self, admissions, tmp_path):
        parties = uris(3)
        with WireTransport(
            local_parties=parties[:1], await_remote_credentials=False
        ) as ta, WireTransport(
            local_parties=parties[1:], await_remote_credentials=False
        ) as tb:
            domains = [
                TrustDomain.create(
                    parties,
                    config=DomainConfig(
                        scheme="hmac",
                        transport=TransportConfig(wire=transport),
                        durability=DurabilityConfig(
                            storage=f"sqlite:{tmp_path}/node{index}.db",
                            durable_runs=True,
                            durable_state=True,
                        ),
                    ),
                )
                for index, transport in enumerate((ta, tb))
            ]
            ta.introduce_to(tb.host, tb.port)
            tb.introduce_to(ta.host, ta.port)
            for domain in domains:
                domain.share_object(OBJECT_ID, {"n": 0})
            proposer = domains[0].organisation(parties[0])
            assert proposer.propose_update(OBJECT_ID, {"n": 1}).agreed
            assert [
                domains[1].organisation(uri).shared_version(OBJECT_ID)
                for uri in parties[1:]
            ] == [1, 1]
        assert len(admissions) >= 2
        assert {pending for _, pending in admissions} == {0}


class _Quotes:
    def quote(self, sku):
        return sku + "!"


def sqlite_domain(tmp_path, parties=5):
    config = DomainConfig(
        durability=DurabilityConfig(
            storage=f"sqlite:{tmp_path}/kv.db", durable_runs=True, durable_state=True
        )
    )
    domain = TrustDomain.create(uris(parties), config=config)
    domain.share_object(OBJECT_ID, {"n": 0})
    return domain


@pytest.fixture
def transactions(monkeypatch):
    """Every ``SQLiteBackend.put_many`` -- one transaction -- as ``(backend, items)``."""
    seen = []
    original = SQLiteBackend.put_many

    def put_many(self, items):
        items = list(items)
        seen.append((self, items))
        original(self, items)

    monkeypatch.setattr(SQLiteBackend, "put_many", put_many)
    return seen


class TestTransactionsPerStep:
    def test_an_agreed_update_is_two_transactions_per_responder(
        self, tmp_path, transactions, monkeypatch
    ):
        opened = []
        connect = SQLiteBackend.__init__

        def counting(self, *args, **kwargs):
            opened.append(self)
            connect(self, *args, **kwargs)

        monkeypatch.setattr(SQLiteBackend, "__init__", counting)
        domain = sqlite_domain(tmp_path)
        assert len(opened) == 5  # one connection per organisation, not per store
        proposer = domain.organisation(uris(5)[0])
        assert proposer.propose_update(OBJECT_ID, {"n": 1}).agreed
        del transactions[:]
        outcome = proposer.propose_update(OBJECT_ID, {"n": 2})
        assert outcome.agreed

        owner_of = {
            id(org.evidence_store._backend._backend): org.uri  # noqa: SLF001
            for org in domain.organisations.values()
        }
        per_owner = Counter(owner_of[id(backend)] for backend, _ in transactions)
        assert per_owner.pop(proposer.uri) <= 4
        assert per_owner == {uri: 2 for uri in uris(5)[1:]}
        rows = [key for _, items in transactions for key, _ in items]
        assert len(rows) == len(set(rows)) == 49
        # One audit row: the proposer's update-coordinated; each responder's
        # acceptance and applied outcome are its reservation and outcome record.
        assert Counter(key.split(":", 1)[0] for key in rows) == {
            "evidence": 30, "audit": 1, "state": 15, "runjournal": 3,
        }
        # Each party's rows went through its own connection.
        for backend, items in transactions:
            assert all(f":{owner_of[id(backend)]}:" in key for key, _ in items)
        # The journal edge closes its transaction.
        edges = [items[-1][0] for _, items in transactions if "runjournal" in items[-1][0]]
        assert [edge.rsplit(":", 1)[1] for edge in edges] == [
            "proposed", "committed", "settled",
        ]
        # What was written is what a cold reader finds, record for record.
        with SQLiteBackend(f"{tmp_path}/kv.db") as cold:
            assert dict(cold.scan("")).items() >= {
                key: value for _, items in transactions for key, value in items
            }.items()
            for org in domain.organisations.values():
                store = EvidenceStore(org.uri, cold)
                assert store.evidence_for_run(outcome.run_id) == org.evidence_for_run(
                    outcome.run_id
                )
                assert AuditLog(org.uri, cold).head_digest == org.audit_log.head_digest

    def test_an_invocation_is_one_transaction_per_side_per_step(
        self, tmp_path, transactions
    ):
        domain = sqlite_domain(tmp_path, parties=2)
        client, server = (domain.organisation(uri) for uri in uris(2))
        server.deploy(_Quotes(), ComponentDescriptor(name="Quotes", non_repudiation=True))
        client.invoke_non_repudiably(server.uri, "Quotes", "quote", ["warm"])
        del transactions[:]
        outcome = client.invoke_non_repudiably(server.uri, "Quotes", "quote", ["x"])
        assert outcome.value == "x!"
        sides = {
            id(org.evidence_store._backend._backend): name  # noqa: SLF001
            for org, name in ((client, "client"), (server, "server"))
        }
        assert [
            (sides[id(backend)], [key.split(":", 1)[0] for key, _ in items])
            for backend, items in transactions
        ] == [
            ("client", ["evidence"]),  # NRO_req, before the request leaves
            # NRO_req, NRR_req, the interceptor's audit of the call, NRO_resp and
            # the handler's audit: one transaction, before the response returns.
            ("server", ["evidence", "evidence", "audit", "evidence", "audit"]),
            ("client", ["evidence"] * 3),  # before the receipt leaves
            ("server", ["evidence", "audit"]),  # before the receipt is acknowledged
            ("client", ["audit"]),  # on return
        ]


class TestJournalBarriers:
    @pytest.mark.parametrize(
        "stage, evidence",
        [
            ("after-journal-proposed", {("nro-update", "generated"): 1}),
            (
                "after-journal-committed",
                {("nro-update", "generated"): 1, ("nr-decision", "received"): 2},
            ),
        ],
    )
    def test_the_failpoint_sees_the_edge_and_its_step_durable(
        self, tmp_path, stage, evidence
    ):
        domain = sqlite_domain(tmp_path, parties=3)
        proposer = domain.organisation(uris(3)[0])
        seen = {}

        def failpoint(at_stage, run):
            if at_stage != stage:
                return
            seen["pending"] = storage.pending_records()
            with SQLiteBackend(f"{tmp_path}/kv.db") as cold:  # a fresh handle
                phase = stage.rsplit("-", 1)[1]
                seen["edge"] = cold.get(f"runjournal:{proposer.uri}:{run.run_id}:{phase}")
                seen["evidence"] = Counter(
                    (record.token_type, record.role)
                    for record in EvidenceStore(proposer.uri, cold).evidence_for_run(
                        run.run_id
                    )
                )

        set_run_fault_injector(failpoint)
        try:
            assert proposer.propose_update(OBJECT_ID, {"n": 1}).agreed
        finally:
            set_run_fault_injector(None)
        assert seen["pending"] == 0
        assert seen["edge"] is not None
        assert seen["evidence"] == evidence


class TestStepsBelongToThreads:
    def test_a_thread_neither_sees_nor_commits_anothers_records(self):
        backend = InMemoryBackend()
        log = AuditLog("urn:org:a", backend)
        store = EvidenceStore("urn:org:a", backend)
        wrote, release = threading.Event(), threading.Event()
        errors = []

        def handler():
            try:
                with storage.step():
                    store.store("run-pool", "nr-decision", {"token_id": "d"})
                    wrote.set()
                    assert release.wait(timeout=10)
                    assert storage.pending_records() == 1  # nobody flushed it
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        worker = threading.Thread(target=handler)
        worker.start()
        assert wrote.wait(timeout=10)
        assert storage.pending_records() == 0  # the other thread's are not mine
        with storage.step():
            log.append("nr.sharing", "run-main")
        # This thread's step committed its own record and nothing else.
        assert [key.split(":", 1)[0] for key in backend.keys()] == ["audit"]
        release.set()
        worker.join(timeout=10)
        assert not worker.is_alive() and not errors
        assert [key.split(":", 1)[0] for key in backend.keys()] == ["audit", "evidence"]
        assert [r.token["token_id"] for r in store.evidence_for_run("run-pool")] == ["d"]


    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_many_threads_stepping_through_one_organisations_stores(
        self, kind, tmp_path
    ):
        backend = (
            InMemoryBackend() if kind == "memory" else SQLiteBackend(f"{tmp_path}/kv.db")
        )
        log = AuditLog("urn:org:a", backend)
        store = EvidenceStore("urn:org:a", backend)
        workers, steps = 8, 40
        errors = []

        def handler(worker):
            try:
                for index in range(steps):
                    with storage.step():
                        store.store_many(
                            f"run-{worker}",
                            [("t", {"token_id": f"{worker}-{index}-{i}"}, "received")
                             for i in range(2)],
                        )
                        log.append("nr.sharing", f"run-{worker}", {"index": index})
                    assert storage.pending_records() == 0
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=handler, args=(n,)) for n in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        # No index handed out twice, no record lost, the chain is what is stored.
        assert len(log) == workers * steps and log.verify_integrity()
        assert AuditLog("urn:org:a", backend).head_digest == log.head_digest
        assert store.total_records() == 2 * workers * steps
        for worker in range(workers):
            assert [r.token["token_id"] for r in store.evidence_for_run(f"run-{worker}")] == [
                f"{worker}-{index}-{i}" for index in range(steps) for i in range(2)
            ]


class TestOutcomeRecordsRideOnBytes:
    def test_stored_bytes_are_those_of_the_dictionary_form(self):
        parties = uris(8)
        domain = TrustDomain.create(parties, config=DomainConfig())
        domain.share_object(OBJECT_ID, {"n": 0})
        proposer = domain.organisation(parties[0])
        outcome = proposer.propose_update(OBJECT_ID, {"n": 1})
        tokens = outcome.evidence
        record = proposer.state_store.outcome_record(OBJECT_ID, 1)
        assert record == {"run_id": outcome.run_id, "outcome": record["outcome"]}
        stored = proposer.state_store._backend.get(  # noqa: SLF001
            f"state:{proposer.uri}:outcome:{OBJECT_ID}:1"
        )
        assert stored == codec.encode(record) and len(stored) <= 800
        # What resync serves is rebuilt from the snapshot and the evidence.
        (served,) = proposer.controller.resync_records(OBJECT_ID, 0)
        assert served["nr_outcome"] == tokens[TokenType.NR_OUTCOME.value].to_dict()
        assert served["decisions"] == sorted(
            (tokens[f"{TokenType.NR_DECISION.value}:{uri}"].to_dict() for uri in parties[1:]),
            key=lambda token: (token["issuer"], token["token_id"]),
        )

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_a_record_whose_tokens_have_tag_shaped_details_resyncs(
        self, kind, tmp_path, monkeypatch
    ):
        parties = uris(3)
        domain = TrustDomain.create(
            parties,
            config=DomainConfig(
                transport=TransportConfig(clock=SimulatedClock()),
                durability=DurabilityConfig(
                    storage="memory" if kind == "memory" else f"sqlite:{tmp_path}/kv.db",
                    durable_state=True,
                ),
            ),
        )
        domain.share_object(OBJECT_ID, {"n": 0})
        proposer, _, excluded = (domain.organisation(uri) for uri in parties)
        # A plain dict that merely looks like a codec tag, in signed details.
        for organisation in domain.organisations.values():
            build = organisation.evidence_builder.build
            monkeypatch.setattr(
                organisation.evidence_builder,
                "build",
                lambda *args, _build=build, **kwargs: _build(
                    *args, **{"details": {"note": {"__bytes__": "00"}}, **kwargs}
                ),
            )

        def sever(stage, run):
            if stage == "after-journal-committed":
                domain.network.partition.sever(proposer.uri, excluded.uri)

        set_run_fault_injector(sever)
        try:
            outcome = proposer.propose_update(OBJECT_ID, {"n": 1})
        finally:
            set_run_fault_injector(None)
        assert outcome.agreed and excluded.shared_version(OBJECT_ID) == 0
        assert outcome.evidence[TokenType.NR_OUTCOME.value].details == {
            "note": {"__bytes__": "00"}
        }

        (record,) = proposer.controller.resync_records(OBJECT_ID, 0)
        assert excluded.controller.apply_resync_record(dict(record))
        assert excluded.shared_state(OBJECT_ID) == {"n": 1}
        assert Counter(
            (stored.token_type, stored.role)
            for stored in excluded.evidence_for_run(outcome.run_id)
        ) == {
            ("nro-update", "received"): 1,
            ("nr-decision", "generated"): 1,
            ("nr-outcome", "received"): 1,
            ("nr-decision", "received"): 1,  # the other responder's, verified and kept
        }
        # The catch-up re-persists the record for the next stale peer, as is.
        assert excluded.controller.resync_records(OBJECT_ID, 0) == [record]
