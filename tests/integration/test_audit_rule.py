"""Audit keeps only what no evidence row or outcome record already says.

Every run a responder accepted ends in exactly one readable record: the
outcome record of the version it applied, or one audit saying why it did
not apply.  An acceptance itself is not audited (it is the reservation,
then however the run ends); a refusal is, as ``proposal-validated`` with
``accepted: False``.  Four endings on a default 3-party domain: agreed,
vetoed by another member, an outcome lost and caught up, aborted.
"""

from __future__ import annotations

import pytest

from repro import TrustDomain
from repro.core.config import DomainConfig
from repro.core.validators import RejectAllValidator

URIS = ["urn:org:r0", "urn:org:r1", "urn:org:r2"]
A, B, C = URIS
OBJECT_ID = "audited-doc"

#: The audits that end an accepted run which applied nothing.
ENDINGS = {
    "outcome-received", "outcome-rejected", "outcome-unheld",
    "run-abort-received", "orphan-run-expired",
}


@pytest.fixture()
def domain():
    domain = TrustDomain.create(URIS, config=DomainConfig())
    domain.share_object(OBJECT_ID, {"n": 0})
    return domain


def audits(organisation, run_id):
    return [record.details for record in organisation.audit_records(subject=run_id)]


def endings(organisation, run_id):
    """The records that say how ``run_id`` ended at ``organisation``."""
    ended = [d["event"] for d in audits(organisation, run_id) if d.get("event") in ENDINGS]
    store = organisation.state_store
    return ended + [
        f"outcome-record:v{version}"
        for version in range(1, organisation.shared_version(OBJECT_ID) + 1)
        if (store.outcome_record(OBJECT_ID, version) or {}).get("run_id") == run_id
    ]


def validated(organisation, run_id):
    return [d for d in audits(organisation, run_id) if d.get("event") == "proposal-validated"]


def test_an_agreed_run_ends_in_the_outcome_record_alone(domain):
    outcome = domain.organisation(A).propose_update(OBJECT_ID, {"n": 1})
    assert outcome.agreed
    for uri in (B, C):
        responder = domain.organisation(uri)
        assert endings(responder, outcome.run_id) == ["outcome-record:v1"]
        assert audits(responder, outcome.run_id) == []
    assert [d["event"] for d in audits(domain.organisation(A), outcome.run_id)] == [
        "update-coordinated"
    ]


def test_a_vetoed_run_ends_in_one_audit_and_the_veto_is_audited(domain):
    domain.organisation(C).controller.add_validator(OBJECT_ID, RejectAllValidator())
    outcome = domain.organisation(A).propose_update(OBJECT_ID, {"n": 1})
    assert not outcome.agreed
    (received,) = [
        d for d in audits(domain.organisation(B), outcome.run_id)
        if d["event"] == "outcome-received"
    ]
    assert received["agreed"] is False and received["applied"] is False
    assert endings(domain.organisation(B), outcome.run_id) == ["outcome-received"]
    assert validated(domain.organisation(B), outcome.run_id) == []
    (refusal,) = validated(domain.organisation(C), outcome.run_id)
    assert refusal["accepted"] is False and refusal["reason"]


def test_a_lost_outcome_ends_in_the_outcome_record_catch_up_wrote(domain):
    responder = domain.organisation(C)
    handle_outcome, swallowed = responder.controller.handle_outcome, []

    def swallow(message):
        if swallowed:
            return handle_outcome(message)
        swallowed.append(message.run_id)
        return None

    responder.controller.handle_outcome = swallow
    first = domain.organisation(A).propose_update(OBJECT_ID, {"n": 1})
    assert first.agreed and swallowed == [first.run_id]
    assert endings(responder, first.run_id) == []  # still open: reserved, no outcome
    second = domain.organisation(A).propose_update(OBJECT_ID, {"n": 2})
    assert second.agreed
    assert endings(responder, first.run_id) == ["outcome-record:v1"]
    assert endings(responder, second.run_id) == ["outcome-record:v2"]
    assert endings(domain.organisation(B), first.run_id) == ["outcome-record:v1"]


def test_an_aborted_run_ends_in_the_abort_notice(domain):
    domain.network.partition.sever(A, C)
    future = domain.organisation(A).propose_update_async(OBJECT_ID, {"n": 1})
    assert future.abort("operator gave up")
    assert endings(domain.organisation(B), future.run_id) == ["run-abort-received"]
    assert validated(domain.organisation(B), future.run_id) == []
    assert domain.organisation(B).controller.held_reservations() == []
