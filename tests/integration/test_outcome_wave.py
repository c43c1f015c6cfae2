"""The outcome wave carries each fact once, and every replica can still prove it.

A responder already holds the ``NR_DECISION`` it signed, so the proposer's
outcome to it carries the ``NR_OUTCOME`` and the decisions of every *other*
responder only; the responder's own acceptance is its reservation.  Each
test runs on a default 4-party domain with real RSA keys, over the
simulator and over loopback wire:

* the wave to P carries exactly the outcome plus every decision but P's;
* a decision "from P" smuggled into P's outcome changes nothing at P;
* an outcome missing a third member's decision is rejected, not applied;
* every applied version is provable from each replica's own store --
  what catch-up serves.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import TrustDomain, codec
from repro.core.agreement import agreement_proof, decision_payload, proving_tokens
from repro.core.config import DomainConfig, TransportConfig
from repro.core.evidence import EvidenceBuilder, EvidenceToken, TokenType, payload_digest
from repro.core.validators import ValidationDecision
from repro.crypto.signature import Signer, get_scheme
from repro.transport.wire import WireTransport

URIS = ["urn:org:w0", "urn:org:w1", "urn:org:w2", "urn:org:w3"]
PROPOSER, P, THIRD, FOURTH = URIS
OBJECT_ID = "wave-doc"


@contextlib.contextmanager
def four_parties(transport):
    """Yield ``uri -> Organisation`` for a default domain sharing ``OBJECT_ID``."""
    if transport == "sim":
        domain = TrustDomain.create(URIS, config=DomainConfig())
        domain.share_object(OBJECT_ID, {"n": 0})
        yield domain.organisation
        return
    with WireTransport(local_parties=URIS[:1], await_remote_credentials=False) as ta, (
        WireTransport(local_parties=URIS[1:], await_remote_credentials=False)
    ) as tb:
        near, far = (
            TrustDomain.create(URIS, config=DomainConfig(transport=TransportConfig(wire=t)))
            for t in (ta, tb)
        )
        ta.introduce_to(tb.host, tb.port)
        tb.introduce_to(ta.host, ta.port)
        near.share_object(OBJECT_ID, {"n": 0})
        far.share_object(OBJECT_ID, {"n": 0})
        yield lambda uri: (near if uri == PROPOSER else far).organisation(uri)


@pytest.fixture(params=["sim", "wire"])
def org(request):
    with four_parties(request.param) as organisation:
        yield organisation


def events(organisation, run_id):
    return [record.details.get("event") for record in organisation.audit_records(subject=run_id)]


def decisions_of(organisation, run_id, issuer):
    return [
        record.role
        for record in organisation.evidence_for_run(run_id)
        if record.token_type == TokenType.NR_DECISION.value
        and record.token.get("issuer") == issuer
    ]


def rewrite_outcome_at(org, monkeypatch, uri, rewrite):
    """Pass every outcome message ``uri`` receives through ``rewrite`` first."""
    controller = org(uri).controller
    handle_outcome = controller.handle_outcome

    def rewritten(message):
        message.tokens = rewrite(message)
        return handle_outcome(message)

    monkeypatch.setattr(controller, "handle_outcome", rewritten)


def test_the_wave_to_each_responder_omits_its_own_decision(org, monkeypatch):
    received = {}
    for uri in URIS[1:]:
        rewrite_outcome_at(
            org, monkeypatch, uri,
            lambda message, uri=uri: received.setdefault(uri, list(message.tokens)),
        )
    outcome = org(PROPOSER).propose_update(OBJECT_ID, {"n": 1})
    assert outcome.agreed
    for uri, tokens in received.items():
        assert [token.token_type for token in tokens] == [TokenType.NR_OUTCOME.value] + [
            TokenType.NR_DECISION.value
        ] * 2
        assert tokens[0].issuer == PROPOSER
        assert {token.issuer for token in tokens[1:]} == set(URIS[1:]) - {uri}
        # The replica's own decision is the one it signed, stored once.
        assert decisions_of(org(uri), outcome.run_id, uri) == ["generated"]
        assert org(uri).shared_state(OBJECT_ID) == {"n": 1}


@pytest.mark.parametrize("smuggled", ["forged", "echoed"])
def test_a_decision_smuggled_in_as_the_recipients_own_changes_nothing(
    org, monkeypatch, smuggled
):
    impostor = get_scheme("rsa").generate_keypair()

    def smuggle(message):
        if smuggled == "echoed":  # the copy the wave used to send back
            (record,) = [
                r for r in org(P).evidence_for_run(message.run_id)
                if r.token_type == TokenType.NR_DECISION.value
            ]
            extra = EvidenceToken.from_stored(record)
        else:  # P's name, another key, a refusal P never signed
            digest = bytes.fromhex(codec.unwrap(message.payload)["proposed_state_digest"])
            payload = decision_payload(
                OBJECT_ID, message.run_id, P, ValidationDecision(False, "forged", "x"), digest
            )
            extra = EvidenceBuilder(P, Signer(impostor.private)).build(
                TokenType.NR_DECISION, message.run_id, 2, PROPOSER, payload
            )
        return list(message.tokens) + [extra]

    rewrite_outcome_at(org, monkeypatch, P, smuggle)
    outcome = org(PROPOSER).propose_update(OBJECT_ID, {"n": 1})
    assert outcome.agreed
    assert org(P).shared_state(OBJECT_ID) == {"n": 1}
    assert org(P).shared_version(OBJECT_ID) == 1
    assert decisions_of(org(P), outcome.run_id, P) == ["generated"]
    assert "outcome-rejected" not in events(org(P), outcome.run_id)


def test_an_outcome_missing_a_third_members_decision_is_rejected(org, monkeypatch):
    rewrite_outcome_at(
        org, monkeypatch, P,
        lambda message: [token for token in message.tokens if token.issuer != THIRD],
    )
    outcome = org(PROPOSER).propose_update(OBJECT_ID, {"n": 1})
    assert outcome.agreed  # the proposer's view; P could not prove it
    assert "outcome-rejected" in events(org(P), outcome.run_id)
    assert org(P).shared_version(OBJECT_ID) == 0
    assert org(P).shared_state(OBJECT_ID) == {"n": 0}
    assert org(P).state_store.outcome_record(OBJECT_ID, 1) is None
    for uri in (PROPOSER, THIRD, FOURTH):
        assert org(uri).shared_state(OBJECT_ID) == {"n": 1}


def test_every_applied_version_is_provable_from_each_replicas_own_store(org):
    for version, proposer in enumerate(URIS, start=1):
        assert org(proposer).propose_update(OBJECT_ID, {"n": version}).agreed
    for uri in URIS:
        organisation = org(uri)
        members = organisation.controller.members(OBJECT_ID)
        for version in range(1, len(URIS) + 1):
            record = organisation.state_store.outcome_record(OBJECT_ID, version)
            run_id, outcome = record["run_id"], record["outcome"]
            nr_outcome, decisions = proving_tokens(
                run_id, outcome, (r.token for r in organisation.evidence_for_run(run_id))
            )
            assert nr_outcome is not None and len(decisions) == len(URIS) - 1
            fields = codec.unwrap(outcome)
            proposal = {key: fields[key] for key in ("object_id", "proposer", "base_version")}
            proposal["proposed_state"] = organisation.state_store.state_at_version(
                OBJECT_ID, version
            )
            revived = [
                EvidenceToken.from_dict(dict(token), revived=True)
                for token in [nr_outcome, *decisions]
            ]
            assert agreement_proof(
                organisation.evidence_verifier, run_id, outcome, revived[0], revived[1:],
                payload_digest(proposal), members, fields["proposer"],
            ) is None, (uri, version)
        # Catch-up serves exactly those records.
        assert len(organisation.controller.resync_records(OBJECT_ID, 0)) == len(URIS)
