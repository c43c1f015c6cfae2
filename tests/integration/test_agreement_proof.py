"""The agreement rule: a replica applies only what every member provably agreed to.

A responder reserves an object for the run whose proposal it accepted, keeps
that proposal, and applies it only when the outcome passes
``agreement_proof``.  One regression test per hole the rule closes, each on a
default 3-party domain with real RSA keys, over the simulator and over
loopback wire:

* (a) racing proposals at one base version can no longer both be agreed;
* (b) a proposer can no longer claim agreement over a veto, or without a
  member's decision;
* (c) the state a responder applies is the one it accepted, never an
  unsigned copy riding on the outcome message.

Then a seeded race property, the restarted-responder (``outcome-unheld``)
path, the reservation lifecycle, and byte-identity of the decision payload
template with the canonical encoder.
"""

from __future__ import annotations

import contextlib
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TrustDomain, codec
from repro.core.agreement import decision_payload
from repro.core.config import DomainConfig, DurabilityConfig, FaultConfig, TransportConfig
from repro.core.organisation import Organisation
from repro.core.sharing import DEFAULT_ORPHAN_RUN_TIMEOUT, set_run_fault_injector
from repro.core.validators import CallableValidator, RejectAllValidator, ValidationDecision
from repro.crypto.signature import get_scheme
from repro.faults import FaultPlan, FaultRule
from repro.persistence.storage import InMemoryBackend
from repro.transport.wire import WireTransport

URIS = ["urn:org:a", "urn:org:b", "urn:org:c"]
A, B, C = URIS
OBJECT_ID = "obj"


@pytest.fixture(scope="module")
def keys():
    return {uri: get_scheme("rsa").generate_keypair() for uri in URIS}


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
        tb.introduce_to(ta.host, ta.port)
        near.share_object(OBJECT_ID, {"n": 0})
        far.share_object(OBJECT_ID, {"n": 0})
        yield lambda uri: (near if uri == A else far).organisation(uri)


@pytest.fixture(params=["sim", "wire"])
def org(request):
    with three_parties(request.param) as organisation:
        yield organisation


def replicas(org):
    return {
        uri: (org(uri).shared_version(OBJECT_ID), org(uri).controller.state_digest(OBJECT_ID))
        for uri in URIS
    }


def events(organisation, run_id):
    return [record.details.get("event") for record in organisation.audit_records(subject=run_id)]


# -- (a) racing proposals -----------------------------------------------------------


def test_racing_proposals_never_both_agree(org, monkeypatch):
    # C's validator holds A's proposal until B's has arrived too, so both
    # runs are in flight at base version 0 at once.
    arrived, both, parked = [], threading.Event(), threading.Event()
    handle_proposal = org(C).controller.handle_proposal

    def counting(message):
        arrived.append(message.sender)
        if len(arrived) == 2:
            both.set()
        return handle_proposal(message)

    def park(_context):
        parked.set()
        both.wait(10)
        return True

    monkeypatch.setattr(org(C).controller, "handle_proposal", counting)
    org(C).controller.add_validator(OBJECT_ID, CallableValidator(park))
    outcomes = {}
    first = threading.Thread(
        target=lambda: outcomes.setdefault(A, org(A).propose_update(OBJECT_ID, {"n": 1}))
    )
    first.start()
    assert parked.wait(10)
    outcomes[B] = org(B).propose_update(OBJECT_ID, {"n": 2})
    both.set()  # B may have been refused before its proposal left
    first.join(30)
    assert not first.is_alive() and set(outcomes) == {A, B}

    assert sum(outcome.agreed for outcome in outcomes.values()) <= 1
    assert len(set(replicas(org).values())) == 1


# -- (b) the proposer's word is not proof --------------------------------------------


def _overrule_vetoes(org, monkeypatch):
    """A forwards every decision, but reports each one as an acceptance."""
    org(C).controller.add_validator(OBJECT_ID, RejectAllValidator())
    verify = org(A).controller._verify_decision  # noqa: SLF001

    def lying(*args):
        decision, token = verify(*args)
        return ValidationDecision(True, decision.reason, decision.validator), token

    monkeypatch.setattr(org(A).controller, "_verify_decision", lying)


def _drop_c(org, monkeypatch):
    """A never asks C, and claims agreement from B's decision alone."""
    monkeypatch.setattr(org(A).controller, "peers", lambda object_id: [B])


@pytest.mark.parametrize("lie", [_overrule_vetoes, _drop_c], ids=["veto", "dropped"])
def test_a_claimed_agreement_without_every_acceptance_is_rejected(org, monkeypatch, lie):
    lie(org, monkeypatch)
    outcome = org(A).propose_update(OBJECT_ID, {"n": 1})
    assert outcome.agreed  # the dishonest proposer's own view
    for uri in (B, C):
        assert org(uri).shared_version(OBJECT_ID) == 0
        assert org(uri).shared_state(OBJECT_ID) == {"n": 0}
    assert "outcome-rejected" in events(org(B), outcome.run_id)


# -- (c) the applied state is the signed one ------------------------------------------


def test_a_tampered_unsigned_proposal_is_never_applied(org, monkeypatch):
    handle_outcome = org(C).controller.handle_outcome

    def tampered(message):
        forged = {"object_id": OBJECT_ID, "proposer": A, "base_version": 0,
                  "proposed_state": {"n": 666}}
        message.attributes = {**message.attributes, "proposal": forged}
        return handle_outcome(message)

    monkeypatch.setattr(org(C).controller, "handle_outcome", tampered)
    assert org(A).propose_update(OBJECT_ID, {"n": 1}).agreed
    assert {uri: org(uri).shared_state(OBJECT_ID) for uri in URIS} == {
        uri: {"n": 1} for uri in URIS
    }
    assert len(set(replicas(org).values())) == 1


# -- a seeded race property -----------------------------------------------------------


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    # Losses make runs wait on retry timers, which is what interleaves them
    # on a virtual clock; 0.3 still leaves 10 attempts a ~1e-5 chance to fail.
    drop=st.sampled_from([0.2, 0.3]),
    starts=st.lists(
        st.tuples(st.sampled_from(URIS), st.sampled_from([0.0, 0.05, 0.2, 1.0])),
        min_size=2,
        max_size=3,
    ),
)
def test_racing_proposers_end_with_equal_replicas_and_one_agreement_per_base(
    keys, seed, drop, starts
):
    plan = FaultPlan(
        rules=(FaultRule("drop", probability=drop), FaultRule("duplicate", probability=0.1)),
        seed=seed.to_bytes(4, "big"),
    )
    domain = TrustDomain.create(
        URIS,
        config=DomainConfig(keypair_factory=keys.__getitem__, faults=FaultConfig(plan=plan)),
    )
    domain.share_object(OBJECT_ID, {"n": 0})
    scheduler = domain.retry_scheduler
    futures = []

    def start(index, uri):
        futures.append(
            domain.organisation(uri).propose_update_async(OBJECT_ID, {"n": index + 1})
        )

    for index, (uri, delay) in enumerate(starts):
        scheduler.schedule(delay, lambda index=index, uri=uri: start(index, uri))
    assert scheduler.drive_until(
        lambda: len(futures) == len(starts) and all(future.done() for future in futures),
        timeout=60,
    )
    agreed = [future.result().new_version for future in futures if future.result().agreed]
    assert len(agreed) == len(set(agreed))  # at most one agreed run per base version
    finals = {
        (domain.organisation(uri).shared_version(OBJECT_ID),
         domain.organisation(uri).controller.state_digest(OBJECT_ID))
        for uri in URIS
    }
    assert len(finals) == 1
    assert next(iter(finals))[0] == len(agreed)


# -- a restarted responder holds no reservation: outcome-unheld, then resync ----------


def test_a_restarted_responder_stores_the_unheld_outcome_and_resyncs():
    backends = {uri: InMemoryBackend() for uri in URIS}
    domain = TrustDomain.create(
        URIS,
        config=DomainConfig(
            durability=DurabilityConfig(
                durable_state=True, state_backend_factory=backends.__getitem__
            )
        ),
    )
    domain.share_object(OBJECT_ID, {"n": 0})

    def restart_c(stage, run):
        if stage != "after-journal-committed":
            return
        old = domain.organisation(C)
        restarted = Organisation(
            uri=C, network=domain.network, ca=domain.certificate_authority,
            keypair=old.keypair, clock=old.clock, state_backend=backends[C],
            durable_state=True,
        )
        domain.organisations[C] = restarted
        for uri in (A, B):
            restarted.trust(domain.organisation(uri))
            domain.organisation(uri).trust(restarted)
        restarted.share_object(OBJECT_ID, {"n": 0}, URIS)

    set_run_fault_injector(restart_c)
    try:
        outcome = domain.organisation(A).propose_update(OBJECT_ID, {"n": 1})
    finally:
        set_run_fault_injector(None)
    assert outcome.agreed
    restarted = domain.organisation(C)
    assert restarted.shared_version(OBJECT_ID) == 0
    assert "outcome-unheld" in events(restarted, outcome.run_id)
    assert restarted.evidence_for_run(outcome.run_id)  # the evidence is kept

    for record in domain.organisation(A).controller.resync_records(OBJECT_ID, 0):
        assert restarted.controller.apply_resync_record(dict(record))
    assert "resync-applied" in events(restarted, outcome.run_id)
    for uri in URIS:
        assert domain.organisation(uri).shared_state(OBJECT_ID) == {"n": 1}


# -- reservation lifecycle -------------------------------------------------------------


def test_an_aborted_run_releases_the_reservations_it_took():
    domain = TrustDomain.create(URIS, config=DomainConfig())
    domain.share_object(OBJECT_ID, {"n": 0})
    # A run that never reaches its outcome: A gives up before phase 2.
    domain.network.partition.sever(A, C)
    future = domain.organisation(A).propose_update_async(OBJECT_ID, {"n": 1})
    assert future.abort("operator gave up")
    assert "run-abort-received" in events(domain.organisation(B), future.run_id)
    domain.network.partition.heal_all()
    # B accepted A's proposal; the abort notice freed it for the next run.
    assert domain.organisation(B).propose_update(OBJECT_ID, {"n": 2}).agreed


def test_a_vanished_proposers_reservation_expires_at_the_next_proposal():
    domain = TrustDomain.create(URIS, config=DomainConfig())
    domain.share_object(OBJECT_ID, {"n": 0})

    def die(stage, run):
        if stage == "after-journal-committed":
            raise RuntimeError("proposer died")

    set_run_fault_injector(die)
    try:
        dead = domain.organisation(A).propose_update_async(OBJECT_ID, {"n": 1})
    finally:
        set_run_fault_injector(None)
    assert dead.error is not None
    busy = domain.organisation(B).propose_update(OBJECT_ID, {"n": 2})
    assert not busy.agreed and busy.reason == f"busy: {dead.run_id}"

    domain.network.clock.advance(DEFAULT_ORPHAN_RUN_TIMEOUT + 1)
    assert domain.organisation(B).propose_update(OBJECT_ID, {"n": 2}).agreed
    for uri in URIS:
        assert domain.organisation(uri).shared_state(OBJECT_ID) == {"n": 2}
    assert "orphan-run-expired" in events(domain.organisation(C), dead.run_id)


# -- one decision payload builder --------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    reason=st.text(),
    validator=st.text(),
    responder=st.text(),
    accepted=st.booleans(),
    digest=st.binary(min_size=32, max_size=32),
)
def test_the_decision_template_is_byte_identical_to_the_canonical_encoder(
    reason, validator, responder, accepted, digest
):
    decision = ValidationDecision(accepted=accepted, reason=reason, validator=validator)
    built = decision_payload("obj \"x\"é", "share-\n1", responder, decision, digest)
    reference = codec.canonicalize(
        {
            "object_id": "obj \"x\"é",
            "run_id": "share-\n1",
            "accepted": accepted,
            "reason": reason,
            "validator": validator,
            "responder": responder,
            "proposal_digest": digest.hex(),
        }
    )
    assert built.text == reference.text
    assert built.digest == reference.digest
    assert dict(built.items()) == reference.source
