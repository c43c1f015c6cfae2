"""Settled runs hold no replay state.

A responder keeps a run's recorded replies only while the run is active:
the outcome (or an abort notice, or the orphan expiry) settles a sharing
run, the ``NRR_response`` receipt settles an invocation run, and settling
drops the cached reply and handler data.  What a settled run keeps -- its
status, initiator and seen message ids -- is enough to ignore duplicate
one-way messages and to refuse a late duplicate request, which is never
re-validated, re-signed, re-executed or re-stored.  A party's memory then
follows its stored evidence, not the number of runs it served.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc
from collections import Counter

import pytest

from repro import ComponentDescriptor, TrustDomain
from repro.clock import SimulatedClock
from repro.core.evidence import TokenType
from repro.core.invocation import NR_INVOCATION_PROTOCOL
from repro.core.messages import B2BProtocolMessage
from repro.core.protocol import ProtocolRun
from repro.crypto.rng import new_unique_id
from repro.crypto.signature import clear_verification_cache
from repro.errors import RemoteInvocationError
from tests.conftest import QuoteService

URIS = ["urn:org:settle0", "urn:org:settle1", "urn:org:settle2"]
A, B, C = URIS
OBJECT_ID = "settled-doc"


def make_domain():
    domain = TrustDomain.create(URIS, scheme="hmac", clock=SimulatedClock())
    domain.share_object(OBJECT_ID, {"n": 0})
    return domain


def record_deliveries(organisation):
    """Capture every protocol message ``organisation``'s coordinator receives."""
    coordinator, seen = organisation.coordinator, []
    deliver, deliver_request = coordinator.deliver, coordinator.deliver_request

    def one_way(message):
        seen.append(message)
        return deliver(message)

    def request(message):
        seen.append(message)
        return deliver_request(message)

    coordinator.deliver, coordinator.deliver_request = one_way, request
    return seen


def of_run(messages, run_id):
    return {m.attributes.get("action"): m for m in messages if m.run_id == run_id}


def replicas(domain):
    return [
        (org.shared_version(OBJECT_ID), org.controller.state_digest(OBJECT_ID))
        for org in domain.organisations.values()
    ]


def evidence_rows(organisation, run_id):
    return Counter(
        (record.token_type, record.role)
        for record in organisation.evidence_store.evidence_for_run(run_id)
    )


def held_replies(handler):
    """Runs of ``handler`` still holding a cached reply or handler data."""
    return [run.run_id for run in handler.runs.all_runs() if run.holds_replay_state]


def assert_redelivery_refused(domain, responder, received, run_id):
    """Re-deliver ``run_id``'s proposal and its closing message, unchanged."""
    before = (evidence_rows(responder, run_id), replicas(domain),
              len(responder.audit_records(subject=run_id)))
    run = responder.controller.handler.runs.get(run_id)
    assert run.finished and not run.holds_replay_state
    proposer = domain.organisation(A).coordinator
    with pytest.raises(RemoteInvocationError, match="ProtocolStateError"):
        proposer.request(received["propose"])
    for action, message in received.items():
        if action != "propose":
            proposer.send(message)  # a duplicate: ignored
    after = (evidence_rows(responder, run_id), replicas(domain),
             len(responder.audit_records(subject=run_id)))
    assert after == before
    assert before[0][(TokenType.NR_DECISION.value, "generated")] == 1
    assert not run.holds_replay_state


class TestSharingRedelivery:
    def test_agreed_run_refuses_its_proposal_and_ignores_its_outcome(self):
        domain = make_domain()
        received = record_deliveries(domain.organisation(B))
        outcome = domain.organisation(A).propose_update(OBJECT_ID, {"n": 1})
        assert outcome.agreed
        messages = of_run(received, outcome.run_id)
        assert set(messages) == {"propose", "outcome"}
        assert_redelivery_refused(
            domain, domain.organisation(B), messages, outcome.run_id
        )
        assert replicas(domain) == [replicas(domain)[0]] * 3
        assert domain.organisation(B).shared_version(OBJECT_ID) == 1

    def test_aborted_run_refuses_its_proposal_and_ignores_its_notice(self):
        domain = make_domain()
        received = record_deliveries(domain.organisation(B))
        domain.network.partition.sever(A, C)
        future = domain.organisation(A).propose_update_async(OBJECT_ID, {"n": 1})
        responder = domain.organisation(B)
        live = responder.controller.handler.runs.get(future.run_id)
        assert not live.finished and live.holds_replay_state

        # While the run is active a duplicate gets the identical recorded reply.
        proposal = of_run(received, future.run_id)["propose"]
        reply = responder.controller.handler.process_request(proposal)
        assert responder.controller.handler.process_request(proposal) is reply

        assert future.abort("operator gave up")
        messages = of_run(received, future.run_id)
        assert set(messages) == {"propose", "abort"}
        assert_redelivery_refused(domain, responder, messages, future.run_id)
        assert [version for version, _ in replicas(domain)] == [0, 0, 0]
        assert responder.controller.held_reservations() == []


class TestInvocationRedelivery:
    @pytest.fixture()
    def parties(self):
        domain = TrustDomain.create(URIS[:2], scheme="hmac", clock=SimulatedClock())
        client, server = (domain.organisation(uri) for uri in URIS[:2])
        service = QuoteService()
        server.deploy(
            service, ComponentDescriptor(name="QuoteService", non_repudiation=True)
        )
        return client, server, service

    def test_request_after_the_receipt_is_refused_and_not_executed(self, parties):
        client, server, service = parties
        received = record_deliveries(server)
        outcome = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["axle"])
        assert service.calls == 1
        (request,) = [m for m in received if m.run_id == outcome.run_id and m.step == 1]
        rows = evidence_rows(server, outcome.run_id)
        assert held_replies(server.server_invocation_handler) == []

        with pytest.raises(RemoteInvocationError, match="ProtocolStateError"):
            client.coordinator.request(request)
        assert service.calls == 1
        assert evidence_rows(server, outcome.run_id) == rows
        assert held_replies(server.server_invocation_handler) == []

    def test_without_a_receipt_a_retransmission_is_replayed(self, parties):
        client, server, service = parties
        services = client.coordinator.services
        payload = {"component": "QuoteService", "method": "quote", "args": ["bolt"],
                   "kwargs": {}, "caller": client.uri, "target_party": server.uri}
        run_id = new_unique_id("inv")
        nro = services.evidence_builder.build(
            token_type=TokenType.NRO_REQUEST, run_id=run_id, step=1,
            recipient=server.uri, payload=payload,
        )
        request = B2BProtocolMessage(
            run_id=run_id, protocol=NR_INVOCATION_PROTOCOL, step=1,
            sender=client.uri, recipient=server.uri, payload=payload, tokens=[nro],
        )
        first = client.coordinator.request(request)
        rows = evidence_rows(server, run_id)
        second = client.coordinator.request(request)
        assert second.message_id == first.message_id
        assert second.payload == first.payload
        assert service.calls == 1
        assert evidence_rows(server, run_id) == rows
        assert held_replies(server.server_invocation_handler) == [run_id]


def test_a_reply_cached_while_the_run_settles_is_dropped():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in range(300):
            run = ProtocolRun(f"run-{n}", "p", A, B)
            reply = B2BProtocolMessage(
                run_id=run.run_id, protocol="p", step=2, sender=B, recipient=A
            )
            threads = [
                threading.Thread(target=run.cache_response, args=("m-1", reply)),
                threading.Thread(target=run.complete),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
            assert run.finished and not run.holds_replay_state
    finally:
        sys.setswitchinterval(previous)


#: Bytes a settled run may leave behind outside the stores.  Measured here
#: (3 hmac parties, SimulatedClock, CPython 3.11): 3 866 B while every reply
#: was kept, 454 B once settling drops them -- the run record and its seen
#: message ids.
RESIDUAL_BYTES_PER_RUN = 1_000

#: Allocations made on behalf of the evidence, state and audit stores are
#: what the party keeps as evidence; the rest is bookkeeping.
NOT_STORED = [tracemalloc.Filter(False, "*/repro/persistence/*", all_frames=True)]


def test_memory_follows_stored_evidence_not_run_count():
    domain = make_domain()
    client, server = domain.organisation(A), domain.organisation(B)
    service = QuoteService()
    server.deploy(service, ComponentDescriptor(name="QuoteService", non_repudiation=True))

    def work(first, count):
        for n in range(first, first + count):
            assert client.propose_update(OBJECT_ID, {"n": n, "note": "x" * 64}).agreed
            client.invoke_non_repudiably(server.uri, "QuoteService", "quote", [f"p{n}"])

    work(1, 20)  # one-time caches fill outside the window
    clear_verification_cache()  # a bounded memo, not per-run state
    gc.collect()
    tracemalloc.start(4)  # deep enough to see a store below the codec
    try:
        before = tracemalloc.take_snapshot().filter_traces(NOT_STORED)
        work(21, 200)
        clear_verification_cache()
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(NOT_STORED)
    finally:
        tracemalloc.stop()

    for org in domain.organisations.values():
        for handler in (org.controller.handler, org.server_invocation_handler):
            assert held_replies(handler) == []
    assert len(server.server_invocation_handler.runs.all_runs()) == 220
    # Each round settles a sharing run at both responders and an invocation
    # run at the server.
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth / (200 * 3) < RESIDUAL_BYTES_PER_RUN, growth / 600
