"""Unit tests for optimistic fair exchange and dispute resolution."""

import pytest

from repro import (
    ClaimType,
    ComponentDescriptor,
    DisputeClaim,
    DisputeResolver,
    EvidenceToken,
    TokenType,
    TrustDomain,
)
from repro.core.fair_exchange import FairExchangeClient
from repro.errors import DisputeError, FairExchangeError
from tests.conftest import QuoteService


@pytest.fixture(scope="module")
def arbitrated_domain():
    domain = TrustDomain.create(
        ["urn:org:client", "urn:org:server"], with_arbitrator=True
    )
    server = domain.organisation("urn:org:server")
    server.deploy(
        QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
    )
    return domain


@pytest.fixture
def client(arbitrated_domain):
    return arbitrated_domain.organisation("urn:org:client")


@pytest.fixture
def server(arbitrated_domain):
    return arbitrated_domain.organisation("urn:org:server")


@pytest.fixture
def completed_run(client, server):
    """A finished NR invocation run, returning (run_id, outcome)."""
    outcome = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["beam"])
    return outcome.run_id, outcome


class TestFairExchangeResolution:
    def test_server_obtains_affidavit_when_receipt_missing(
        self, arbitrated_domain, client, server, completed_run
    ):
        run_id, _ = completed_run
        exchange = FairExchangeClient(
            server.uri, server.coordinator, arbitrated_domain.arbitrator_uri
        )
        affidavit = exchange.request_resolution(run_id)
        assert affidavit.token_type == TokenType.TTP_AFFIDAVIT.value
        assert affidavit.issuer == arbitrated_domain.arbitrator_uri
        assert server.evidence_verifier.verify(affidavit)
        stored = server.evidence_store.tokens_of_type(run_id, TokenType.TTP_AFFIDAVIT.value)
        assert stored

    def test_resolution_requires_origin_evidence(self, arbitrated_domain, server):
        exchange = FairExchangeClient(
            server.uri, server.coordinator, arbitrated_domain.arbitrator_uri
        )
        with pytest.raises(FairExchangeError):
            exchange.request_resolution("run-that-never-happened")

    def test_abort_then_resolve_is_refused(
        self, arbitrated_domain, client, server, completed_run
    ):
        run_id, _ = completed_run
        client_exchange = FairExchangeClient(
            client.uri, client.coordinator, arbitrated_domain.arbitrator_uri
        )
        abort_token = client_exchange.request_abort(run_id)
        assert abort_token.token_type == TokenType.TTP_ABORT.value

        server_exchange = FairExchangeClient(
            server.uri, server.coordinator, arbitrated_domain.arbitrator_uri
        )
        with pytest.raises(FairExchangeError):
            server_exchange.request_resolution(run_id)

    def test_resolve_then_abort_is_refused(
        self, arbitrated_domain, client, server, completed_run
    ):
        run_id, _ = completed_run
        server_exchange = FairExchangeClient(
            server.uri, server.coordinator, arbitrated_domain.arbitrator_uri
        )
        server_exchange.request_resolution(run_id)
        client_exchange = FairExchangeClient(
            client.uri, client.coordinator, arbitrated_domain.arbitrator_uri
        )
        with pytest.raises(FairExchangeError):
            client_exchange.request_abort(run_id)

    def test_arbitrator_decision_is_sticky(self, arbitrated_domain, client, server, completed_run):
        run_id, _ = completed_run
        exchange = FairExchangeClient(
            server.uri, server.coordinator, arbitrated_domain.arbitrator_uri
        )
        first = exchange.request_resolution(run_id)
        second = exchange.request_resolution(run_id)
        assert first.token_type == second.token_type == TokenType.TTP_AFFIDAVIT.value
        assert arbitrated_domain.arbitrator.decision_for(run_id) == "resolved"


def tokens_from_store(org, run_id):
    return [EvidenceToken.from_stored(record) for record in org.evidence_for_run(run_id)]


class TestDisputeResolution:
    def test_client_cannot_deny_request_origin(self, client, server, completed_run):
        run_id, _ = completed_run
        resolver = DisputeResolver(server.evidence_verifier)
        claim = DisputeClaim(
            claim_type=ClaimType.DENIES_REQUEST_ORIGIN,
            run_id=run_id,
            denying_party=client.uri,
        )
        verdict = resolver.adjudicate(claim, tokens_from_store(server, run_id))
        assert verdict.refuted and not verdict.upheld
        assert verdict.supporting_evidence[0].token_type == TokenType.NRO_REQUEST.value

    def test_server_cannot_deny_request_receipt(self, client, server, completed_run):
        run_id, _ = completed_run
        resolver = DisputeResolver(client.evidence_verifier)
        claim = DisputeClaim(
            claim_type=ClaimType.DENIES_REQUEST_RECEIPT,
            run_id=run_id,
            denying_party=server.uri,
        )
        verdict = resolver.adjudicate_from_store(claim, client.evidence_store)
        assert verdict.refuted

    def test_server_cannot_deny_response_origin(self, client, server, completed_run):
        run_id, _ = completed_run
        resolver = DisputeResolver(client.evidence_verifier)
        claim = DisputeClaim(
            claim_type=ClaimType.DENIES_RESPONSE_ORIGIN,
            run_id=run_id,
            denying_party=server.uri,
        )
        assert resolver.adjudicate_from_store(claim, client.evidence_store).refuted

    def test_client_cannot_deny_response_receipt(self, client, server, completed_run):
        run_id, _ = completed_run
        resolver = DisputeResolver(server.evidence_verifier)
        claim = DisputeClaim(
            claim_type=ClaimType.DENIES_RESPONSE_RECEIPT,
            run_id=run_id,
            denying_party=client.uri,
        )
        assert resolver.adjudicate_from_store(claim, server.evidence_store).refuted

    def test_denial_stands_without_evidence(self, client, server):
        resolver = DisputeResolver(server.evidence_verifier)
        claim = DisputeClaim(
            claim_type=ClaimType.DENIES_REQUEST_ORIGIN,
            run_id="run-that-never-happened",
            denying_party=client.uri,
        )
        verdict = resolver.adjudicate(claim, [])
        assert verdict.upheld and not verdict.refuted

    def test_forged_evidence_does_not_refute(self, client, server, completed_run):
        run_id, _ = completed_run
        # The server fabricates a token claiming the client signed it.
        forged = server.evidence_builder.build(
            token_type=TokenType.NRO_REQUEST,
            run_id=run_id,
            step=1,
            recipient=server.uri,
            payload={"forged": True},
        )
        relabelled = EvidenceToken(
            token_id=forged.token_id,
            token_type=forged.token_type,
            run_id=forged.run_id,
            step=forged.step,
            issuer=client.uri,          # claims the client issued it
            recipient=forged.recipient,
            payload_digest=forged.payload_digest,
            issued_at=forged.issued_at,
            details=forged.details,
            signature=forged.signature,  # but it carries the server's signature
        )
        resolver = DisputeResolver(server.evidence_verifier)
        claim = DisputeClaim(
            claim_type=ClaimType.DENIES_REQUEST_ORIGIN,
            run_id=run_id,
            denying_party=client.uri,
        )
        verdict = resolver.adjudicate(claim, [relabelled])
        assert verdict.upheld

    def test_sharing_update_denials_are_refutable(self, domain_factory):
        domain = domain_factory(2)
        a = domain.organisation("urn:org:party0")
        b = domain.organisation("urn:org:party1")
        domain.share_object("doc", {"v": 0})
        outcome = a.propose_update("doc", {"v": 1})
        resolver = DisputeResolver(a.evidence_verifier)

        origin_claim = DisputeClaim(
            claim_type=ClaimType.DENIES_UPDATE_ORIGIN,
            run_id=outcome.run_id,
            denying_party=a.uri,
        )
        assert resolver.adjudicate_from_store(origin_claim, b.evidence_store).refuted

        decision_claim = DisputeClaim(
            claim_type=ClaimType.DENIES_UPDATE_DECISION,
            run_id=outcome.run_id,
            denying_party=b.uri,
        )
        assert resolver.adjudicate_from_store(decision_claim, a.evidence_store).refuted

        agreed_claim = DisputeClaim(
            claim_type=ClaimType.DENIES_AGREED_STATE,
            run_id=outcome.run_id,
            denying_party=b.uri,
        )
        assert resolver.adjudicate_from_store(agreed_claim, a.evidence_store).refuted

    def test_unsupported_claim_type_raises(self, client, server):
        resolver = DisputeResolver(server.evidence_verifier)

        class FakeClaimType:
            value = "fake"

        claim = DisputeClaim(
            claim_type=FakeClaimType(),  # type: ignore[arg-type]
            run_id="run",
            denying_party=client.uri,
        )
        with pytest.raises(DisputeError):
            resolver.adjudicate(claim, [])
