"""Self-healing by default: no object stays wedged on a plain ``DomainConfig()``.

A replica that loses an outcome holds the run's reservation and an old
version.  Without repair every later proposal fails: its peers' against the
stale replica (``stale base version``), its own against the reservation
(``busy``).  Recovery needs no configuration: the stale replica catches
itself up from a peer that is ahead (``catch_up``), from records each
replica rebuilds out of its compact ``{run_id, outcome}`` outcome record,
its snapshots and its evidence store.  Covered here, over the simulator
and over loopback wire:

* the lost-outcome regression, in both proposal orders;
* catch-up is served to signed requests of current members only, and
  tokens a member injects into a run do not change what is served;
* a peer serving garbage to catch-up can neither break an introduction nor
  apply anything;
* the rebuilt proposal digests like the live one, on memory and SQLite;
* a store written in the earlier full-record layout still serves;
* a seeded property: one swallowed outcome never wedges the object;
* re-delivery to a peer that never comes back gives up, audited.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TrustDomain, codec
from repro.clock import SimulatedClock
from repro.core import evidence as evidence_module
from repro.core.agreement import decision_payload
from repro.core.config import DomainConfig, DurabilityConfig, TransportConfig
from repro.core.evidence import TokenType, payload_digest
from repro.core.messages import B2BProtocolMessage
from repro.core.sharing import (
    ACTION_CATCH_UP,
    NR_SHARING_PROTOCOL,
    REDELIVERY_MAX_ATTEMPTS,
    set_run_fault_injector,
)
from repro.core.validators import ValidationDecision
from repro.errors import ProtocolError, ReproError
from repro.transport.wire import WireTransport

URIS = ["urn:org:a", "urn:org:b", "urn:org:c"]
A, B, C = URIS
D = "urn:org:d"
OBJECT_ID = "doc"


@contextlib.contextmanager
def three_parties(transport):
    """Yield ``uri -> Organisation`` for a default domain sharing ``OBJECT_ID``."""
    if transport == "sim":
        domain = TrustDomain.create(URIS, config=DomainConfig())
        domain.share_object(OBJECT_ID, {"n": 0})
        yield domain.organisation
        return
    with WireTransport(local_parties=[A], await_remote_credentials=False) as ta, (
        WireTransport(local_parties=[B, C], await_remote_credentials=False)
    ) as tb:
        near, far = (
            TrustDomain.create(URIS, config=DomainConfig(transport=TransportConfig(wire=t)))
            for t in (ta, tb)
        )
        ta.introduce_to(tb.host, tb.port)
        near.share_object(OBJECT_ID, {"n": 0})
        far.share_object(OBJECT_ID, {"n": 0})
        yield lambda uri: (near if uri == A else far).organisation(uri)


@pytest.fixture(params=["sim", "wire"])
def org(request):
    with three_parties(request.param) as organisation:
        yield organisation


def swallow_next_outcome(organisation):
    """Make ``organisation`` drop the next outcome it is handed, unprocessed."""
    handle_outcome, swallowed = organisation.controller.handle_outcome, []

    def swallow(message):
        if swallowed:
            return handle_outcome(message)
        swallowed.append(message.run_id)
        return None

    organisation.controller.handle_outcome = swallow
    return swallowed


def replicas(org, uris=URIS):
    return {
        (org(uri).shared_version(OBJECT_ID), org(uri).controller.state_digest(OBJECT_ID))
        for uri in uris
    }


def events(organisation, run_id=None):
    return [
        record.details.get("event")
        for record in organisation.audit_records(subject=run_id)
    ]


# -- the lost-outcome regression ---------------------------------------------------


def test_a_lost_outcome_no_longer_wedges_the_object(org):
    swallowed = swallow_next_outcome(org(C))
    first = org(A).propose_update(OBJECT_ID, {"n": 1})
    assert first.agreed and swallowed == [first.run_id]
    assert org(C).shared_version(OBJECT_ID) == 0

    for n, proposer in enumerate((A, B, C), start=2):
        outcome = org(proposer).propose_update(OBJECT_ID, {"n": n})
        assert outcome.agreed, (proposer, outcome.reason)
    assert replicas(org) == {(4, org(A).controller.state_digest(OBJECT_ID))}
    assert "resync-applied" in events(org(C), first.run_id)
    for uri in URIS:
        assert org(uri).controller.held_reservations() == []
        assert "outcome-rejected" not in events(org(uri))


def test_the_stale_replica_proposing_first_converges_by_the_next_proposal(org):
    swallowed = swallow_next_outcome(org(C))
    first = org(A).propose_update(OBJECT_ID, {"n": 1})
    assert first.agreed and swallowed == [first.run_id]

    # C's own proposal is blocked by the run it never saw settle: it pulls
    # the missed version from that run's proposer, then proposes on top.
    own = org(C).propose_update(OBJECT_ID, {"n": 2})
    following = org(B).propose_update(OBJECT_ID, {"n": 3})
    assert own.agreed and following.agreed
    assert len(replicas(org)) == 1
    assert org(C).shared_state(OBJECT_ID) == {"n": 3}
    assert "resync-applied" in events(org(C), first.run_id)


def test_a_stale_proposer_refused_as_stale_catches_up_from_the_refusers(org):
    swallowed = swallow_next_outcome(org(C))
    first = org(A).propose_update(OBJECT_ID, {"n": 1})
    org(C).controller._release_reservation(OBJECT_ID, swallowed[0])  # noqa: SLF001 - expired

    refused = org(C).propose_update(OBJECT_ID, {"n": 2})
    assert not refused.agreed and refused.reason.startswith("stale base version 0")
    assert "resync-applied" in events(org(C), first.run_id)
    assert org(C).propose_update(OBJECT_ID, {"n": 2}).agreed
    assert len(replicas(org)) == 1


def test_an_unheld_late_outcome_pulls_the_version_from_its_sender():
    domain = TrustDomain.create(
        URIS,
        config=DomainConfig(scheme="hmac", transport=TransportConfig(clock=SimulatedClock())),
    )
    domain.share_object(OBJECT_ID, {"n": 0})
    a, c = domain.organisation(A), domain.organisation(C)

    def sever(stage, _run):
        if stage == "after-journal-committed":
            domain.network.partition.sever(A, C)

    set_run_fault_injector(sever)
    try:
        outcome = a.propose_update(OBJECT_ID, {"n": 1})
    finally:
        set_run_fault_injector(None)
    c.controller._release_reservation(OBJECT_ID, outcome.run_id)  # noqa: SLF001 - a restart
    domain.network.partition.heal_all()
    assert domain.retry_scheduler.drive_until(lambda: not a.controller.pending_redeliveries())

    assert events(c, outcome.run_id)[-2:] == ["outcome-unheld", "resync-applied"]
    assert c.shared_state(OBJECT_ID) == {"n": 1}


def test_catch_up_is_served_to_members_only():
    domain = TrustDomain.create(URIS, config=DomainConfig(scheme="hmac"))
    a, b, c = (domain.organisation(uri) for uri in URIS)
    for organisation in (a, b):
        organisation.share_object(OBJECT_ID, {"n": 0}, [A, B])
    c.share_object(OBJECT_ID, {"n": 0}, URIS)  # C believes it is a member
    assert a.propose_update(OBJECT_ID, {"n": 1}).agreed
    assert c.controller.catch_up(OBJECT_ID, A) == 0
    assert c.shared_version(OBJECT_ID) == 0
    assert "resync-rejected" not in events(c)  # nothing was served to reject
    assert b.controller.catch_up(OBJECT_ID, A) == 0  # a member that is not behind


def test_tokens_a_member_injects_into_a_run_do_not_spoil_its_catch_up(monkeypatch):
    # C proposes, A loses the outcome, and B -- dishonest -- hands C an outcome
    # message for the run carrying its own NR_OUTCOME and a second decision
    # whose token id sorts after its real one.  C stores both (they verify),
    # yet still serves A the tokens that prove the outcome.
    domain = TrustDomain.create(URIS, config=DomainConfig(scheme="hmac"))
    domain.share_object(OBJECT_ID, {"n": 0})
    a, b, c = (domain.organisation(uri) for uri in URIS)
    swallow_next_outcome(a)
    outcome = c.propose_update(OBJECT_ID, {"n": 1})
    assert outcome.agreed and a.shared_version(OBJECT_ID) == 0

    run_id = outcome.run_id
    stored = c.state_store.outcome_record(OBJECT_ID, 1)["outcome"]
    builder = b.coordinator.services.evidence_builder
    monkeypatch.setattr(evidence_module, "new_unique_id", lambda prefix: f"{prefix}-~injected")
    injected = [
        builder.build(TokenType.NR_OUTCOME, run_id, 3, C, stored),
        builder.build(TokenType.NR_DECISION, run_id, 2, C, decision_payload(
            OBJECT_ID, run_id, B, ValidationDecision(False, "changed my mind", "b"),
            bytes.fromhex(stored["proposed_state_digest"]),
        )),
    ]
    monkeypatch.undo()
    c.controller.handle_outcome(B2BProtocolMessage(
        run_id=run_id, protocol=NR_SHARING_PROTOCOL, step=3, sender=B, recipient=C,
        attributes={"action": "outcome"}, payload=stored, tokens=injected,
    ))
    held = {record.token["token_id"] for record in c.evidence_store.evidence_for_run(run_id)}
    assert {token.token_id for token in injected} <= held

    assert a.controller.catch_up(OBJECT_ID, C) == 1
    assert replicas(domain.organisation) == {(1, c.controller.state_digest(OBJECT_ID))}
    assert "resync-applied" in events(a, run_id)
    assert "resync-rejected" not in events(a)


# -- a hostile peer's records are rejected, never raised --------------------------


def broken_records():
    """A record whose token dicts are broken, bytes that do not decode, a list."""
    broken = {
        "object_id": OBJECT_ID, "new_version": 1, "run_id": "run-x", "proposer": B,
        "outcome": {}, "proposal": {"proposed_state": {"n": 666}},
        "nr_outcome": {"token_type": "nr-outcome"}, "decisions": [{}],
    }
    return [codec.encode(broken), b"\xffnot a record", codec.encode([1, 2])]


def refuse(_message):
    raise ProtocolError("no catch-up for you")


def garbage_reply(message):
    return B2BProtocolMessage(
        run_id=message.run_id, protocol=NR_SHARING_PROTOCOL, step=2, sender=B,
        recipient=message.sender, payload=["not", "records"],
    )


@contextlib.contextmanager
def wire_processes(*extra_local):
    """A in one process, B and C in another, anything in ``extra_local`` in a third.

    Every domain shares ``OBJECT_ID`` from version 0 -- the third one believing
    its parties are members too; nothing is introduced yet.
    """
    uris = URIS + list(extra_local)
    with contextlib.ExitStack() as stack:
        transports = [
            stack.enter_context(WireTransport(local_parties=local, await_remote_credentials=False))
            for local in ([A], [B, C], list(extra_local)) if local
        ]
        domains = [
            TrustDomain.create(uris, config=DomainConfig(transport=TransportConfig(wire=t)))
            for t in transports
        ]
        for domain, believed in zip(domains, (URIS, URIS, uris)):
            domain.share_object(OBJECT_ID, {"n": 0}, believed)
        yield transports, domains


@pytest.mark.parametrize(
    "method, garbage, rejections",
    [
        ("resync_records", lambda *_args: broken_records(), 3),
        ("_serve_catch_up", refuse, 0),
        ("_serve_catch_up", garbage_reply, 0),
    ],
    ids=["records", "error", "reply"],
)
def test_a_peer_serving_garbage_neither_breaks_the_introduction_nor_applies(
    monkeypatch, method, garbage, rejections
):
    with wire_processes() as ((ta, tb), (near, far)):
        monkeypatch.setattr(far.organisation(B).controller, method, garbage)

        ta.introduce_to(tb.host, tb.port)

        assert ta.knows_party(B) and ta.knows_party(C)
        a = near.organisation(A)
        assert (a.shared_version(OBJECT_ID), a.shared_state(OBJECT_ID)) == (0, {"n": 0})
        assert events(a).count("resync-rejected") == rejections
        assert ("catch-up-failed" in events(a, OBJECT_ID)) == (rejections == 0)
        # The introduction left a working domain behind.
        assert a.propose_update(OBJECT_ID, {"n": 1}).agreed


def test_a_process_that_is_no_member_is_served_nothing_over_wire():
    with wire_processes(D) as ((ta, tb, td), (near, far, outsider)):
        ta.introduce_to(tb.host, tb.port)
        assert near.organisation(A).propose_update(OBJECT_ID, {"secret": 1}).agreed
        b, d = far.organisation(B), outsider.organisation(D)

        # D believes it shares the object; B knows it does not.
        td.introduce_to(tb.host, tb.port)
        assert d.shared_version(OBJECT_ID) == 0
        assert "resync-rejected" not in events(d)  # nothing was served to reject
        # No anti-entropy over the unauthenticated system channel any more.
        with pytest.raises(ReproError):
            td.network.system_request(
                (tb.host, tb.port), "resync", {"vectors": {D: {OBJECT_ID: {"version": 0}}}}
            )

        # Nor a catch-up request claiming to come from a member: unsigned,
        # or signed by D but naming A as its sender.
        payload = {"object_id": OBJECT_ID, "from_version": 0, "digest": ""}
        for tokens in ([], [d.coordinator.services.evidence_builder.build(
            TokenType.NRO_CATCH_UP, "catch-up-forged", 1, B, payload
        )]):
            reply = d.coordinator.request(B2BProtocolMessage(
                run_id="catch-up-forged", protocol=NR_SHARING_PROTOCOL, step=1, sender=A,
                recipient=B, attributes={"action": ACTION_CATCH_UP}, payload=payload,
                tokens=tokens,
            ))
            assert reply.payload["records"] == []
        assert b.shared_version(OBJECT_ID) == 1


def test_catch_up_from_a_peer_serving_garbage_applies_nothing(monkeypatch):
    with three_parties("sim") as org:
        served = [codec.decode(raw) if raw[:1] == b"{" else raw for raw in broken_records()]
        monkeypatch.setattr(org(B).controller, "resync_records", lambda *_args: served)
        assert org(C).controller.catch_up(OBJECT_ID, B) == 0
        assert org(C).shared_version(OBJECT_ID) == 0
        assert events(org(C)).count("resync-rejected") == 3


# -- the served record is rebuilt from what the replica stores ----------------------

STATES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
).map(lambda value: {"value": value}) | st.just({}) | st.builds(
    lambda text: {"note": (text * 4096)[:4096]}, st.text(min_size=1, max_size=3)
)


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def rebuild_domain(request, tmp_path_factory):
    storage = "memory" if request.param == "memory" else (
        f"sqlite:{tmp_path_factory.mktemp('rebuild')}/kv.db"
    )
    domain = TrustDomain.create(
        URIS,
        config=DomainConfig(
            scheme="hmac",
            transport=TransportConfig(clock=SimulatedClock()),
            durability=DurabilityConfig(storage=storage, durable_state=True),
        ),
    )
    domain.share_object(OBJECT_ID, {})
    return domain


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(state=STATES, proposer=st.sampled_from(URIS), server=st.sampled_from(URIS))
def test_the_rebuilt_proposal_digests_like_the_live_one(rebuild_domain, state, proposer, server):
    outcome = rebuild_domain.organisation(proposer).propose_update(OBJECT_ID, state)
    assert outcome.agreed
    (record,) = rebuild_domain.organisation(server).controller.resync_records(
        OBJECT_ID, outcome.new_version - 1
    )
    assert record["run_id"] == outcome.run_id
    assert payload_digest(record["proposal"]).hex() == (
        codec.unwrap(record["outcome"])["proposed_state_digest"]
    )
    assert record["proposal"]["proposed_state"] == rebuild_domain.organisation(
        proposer
    ).shared_state(OBJECT_ID)


def test_a_store_in_the_full_record_layout_still_serves(tmp_path):
    domain = TrustDomain.create(
        URIS,
        config=DomainConfig(
            durability=DurabilityConfig(storage=f"sqlite:{tmp_path}/kv.db", durable_state=True)
        ),
    )
    domain.share_object(OBJECT_ID, {"n": 0})
    a, c = domain.organisation(A), domain.organisation(C)
    swallow_next_outcome(c)
    assert a.propose_update(OBJECT_ID, {"n": 1}).agreed
    (served,) = a.controller.resync_records(OBJECT_ID, 0)
    # What the earlier layout kept under the key: the whole served record,
    # tokens and proposal included.  The reader takes run_id and outcome.
    a.state_store._backend.put(  # noqa: SLF001
        f"state:{A}:outcome:{OBJECT_ID}:1", codec.encode({**served, "proposer": "stale"})
    )
    assert a.controller.resync_records(OBJECT_ID, 0) == [served]
    assert c.controller.catch_up(OBJECT_ID, A) == 1
    assert c.shared_state(OBJECT_ID) == {"n": 1}


# -- property: one swallowed outcome never wedges the object ------------------------


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), parties=st.integers(3, 5))
def test_no_object_stays_wedged(data, parties):
    uris = [f"urn:org:p{i}" for i in range(parties)]
    domain = TrustDomain.create(
        uris,
        config=DomainConfig(scheme="hmac", transport=TransportConfig(clock=SimulatedClock())),
    )
    domain.share_object(OBJECT_ID, {"n": 0})
    first_proposer = data.draw(st.sampled_from(uris))
    stale = data.draw(st.sampled_from([uri for uri in uris if uri != first_proposer]))
    swallowed = swallow_next_outcome(domain.organisation(stale))
    assert domain.organisation(first_proposer).propose_update(OBJECT_ID, {"n": 1}).agreed
    assert swallowed

    proposers = data.draw(st.lists(st.sampled_from(uris), min_size=1, max_size=4))
    for n, proposer in enumerate(proposers, start=2):
        outcome = domain.organisation(proposer).propose_update(OBJECT_ID, {"n": n})
        assert outcome.agreed, (proposer, outcome.reason)
    assert replicas(domain.organisation, uris) == {
        (1 + len(proposers), domain.organisation(uris[0]).controller.state_digest(OBJECT_ID))
    }
    assert domain.retry_scheduler.wait_quiescent()
    for uri in uris:
        controller = domain.organisation(uri).controller
        assert controller.held_reservations() == []
        assert controller.pending_redeliveries() == []
        assert "outcome-rejected" not in events(domain.organisation(uri))


# -- re-delivery to a peer gone for good gives up, and the peer heals itself ---------


def test_redelivery_to_a_vanished_peer_is_abandoned_then_the_peer_catches_up():
    domain = TrustDomain.create(
        URIS,
        config=DomainConfig(scheme="hmac", transport=TransportConfig(clock=SimulatedClock())),
    )
    domain.share_object(OBJECT_ID, {"n": 0})
    a, c = domain.organisation(A), domain.organisation(C)

    def sever(stage, _run):
        if stage == "after-journal-committed":
            domain.network.partition.sever(A, C)

    set_run_fault_injector(sever)
    try:
        outcome = a.propose_update(OBJECT_ID, {"n": 1})
    finally:
        set_run_fault_injector(None)
    assert outcome.agreed and a.controller.pending_redeliveries() == [outcome.run_id]

    assert domain.retry_scheduler.drive_until(lambda: not a.controller.pending_redeliveries())
    (abandoned,) = [
        record.details for record in a.audit_records(subject=outcome.run_id)
        if record.details.get("event") == "outcome-redelivery-abandoned"
    ]
    assert abandoned["attempts"] == REDELIVERY_MAX_ATTEMPTS
    assert abandoned["unacked_peers"] == [C]
    assert domain.retry_scheduler.pending_timers() == 0

    domain.network.partition.heal_all()
    assert c.propose_update(OBJECT_ID, {"n": 2}).agreed
    assert replicas(domain.organisation) == {(2, a.controller.state_digest(OBJECT_ID))}
