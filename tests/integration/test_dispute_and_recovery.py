"""Integration tests combining dispute resolution, fair-exchange recovery and
tamper detection across a whole interaction history."""

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
from repro.errors import AuditLogTamperedError
from tests.conftest import QuoteService


@pytest.fixture(scope="module")
def history():
    """A domain with an arbitrator and a short interaction history."""
    domain = TrustDomain.create(
        ["urn:org:buyer", "urn:org:seller"], with_arbitrator=True
    )
    seller = domain.organisation("urn:org:seller")
    buyer = domain.organisation("urn:org:buyer")
    seller.deploy(
        QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
    )
    domain.share_object("contract-terms", {"price_per_unit": 100})
    outcomes = [
        buyer.invoke_non_repudiably(seller.uri, "QuoteService", "quote", [f"part-{i}"])
        for i in range(3)
    ]
    update = buyer.propose_update("contract-terms", {"price_per_unit": 95})
    return domain, buyer, seller, outcomes, update


class TestWholeHistoryAdjudication:
    def test_every_invocation_is_defensible_by_both_sides(self, history):
        _, buyer, seller, outcomes, _ = history
        for outcome in outcomes:
            run_id = outcome.run_id
            # Buyer denies sending; seller's evidence refutes it.
            assert DisputeResolver(seller.evidence_verifier).adjudicate_from_store(
                DisputeClaim(ClaimType.DENIES_REQUEST_ORIGIN, run_id, "urn:org:buyer"),
                seller.evidence_store,
            ).refuted
            # Seller denies responding; buyer's evidence refutes it.
            assert DisputeResolver(buyer.evidence_verifier).adjudicate_from_store(
                DisputeClaim(ClaimType.DENIES_RESPONSE_ORIGIN, run_id, "urn:org:seller"),
                buyer.evidence_store,
            ).refuted

    def test_agreed_price_change_is_defensible(self, history):
        _, buyer, seller, _, update = history
        resolver = DisputeResolver(buyer.evidence_verifier)
        claim = DisputeClaim(
            ClaimType.DENIES_UPDATE_DECISION, update.run_id, "urn:org:seller"
        )
        assert resolver.adjudicate_from_store(claim, buyer.evidence_store).refuted

    def test_claim_about_a_different_run_is_not_refuted_by_other_evidence(self, history):
        _, buyer, seller, outcomes, _ = history
        resolver = DisputeResolver(seller.evidence_verifier)
        # Present evidence from run 0 against a claim about run 1: not refuting.
        run_0_tokens = [
            EvidenceToken.from_stored(record)
            for record in seller.evidence_for_run(outcomes[0].run_id)
        ]
        claim = DisputeClaim(
            ClaimType.DENIES_REQUEST_ORIGIN, outcomes[1].run_id, "urn:org:buyer"
        )
        assert resolver.adjudicate(claim, run_0_tokens).upheld

    def test_recovery_and_dispute_compose(self, history):
        domain, buyer, seller, outcomes, _ = history
        run_id = outcomes[0].run_id
        exchange = FairExchangeClient(seller.uri, seller.coordinator, domain.arbitrator_uri)
        affidavit = exchange.request_resolution(run_id)
        # The affidavit is itself verifiable third-party evidence for the seller.
        assert seller.evidence_verifier.verify(affidavit)
        stored_types = {r.token_type for r in seller.evidence_for_run(run_id)}
        assert TokenType.TTP_AFFIDAVIT.value in stored_types


class TestTamperDetection:
    def test_tampering_with_the_audit_backend_is_detected(self):
        domain = TrustDomain.create(["urn:org:a", "urn:org:b"])
        a = domain.organisation("urn:org:a")
        b = domain.organisation("urn:org:b")
        b.deploy(QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True))
        a.invoke_non_repudiably(b.uri, "QuoteService", "quote", ["x"])
        assert a.audit_log.verify_integrity()
        # Tamper with the first stored audit record directly in the backend.
        backend = a.audit_log._backend  # noqa: SLF001 - simulating an attack
        key = backend.keys()[0]
        backend.put(key, backend.get(key)[:-1] + b"!")
        assert not a.audit_log.verify_integrity()
        with pytest.raises(AuditLogTamperedError):
            a.audit_log.require_integrity()

    def test_state_reconstruction_matches_only_agreed_states(self):
        domain = TrustDomain.create(["urn:org:a", "urn:org:b"])
        a = domain.organisation("urn:org:a")
        b = domain.organisation("urn:org:b")
        domain.share_object("ledger", {"balance": 0})
        a.propose_update("ledger", {"balance": 50})
        a.propose_update("ledger", {"balance": 75})
        for org in (a, b):
            assert org.state_store.is_agreed_state("ledger", {"balance": 50})
            assert org.state_store.is_agreed_state("ledger", {"balance": 75})
            # A state that was never coordinated cannot be passed off as agreed.
            assert not org.state_store.is_agreed_state("ledger", {"balance": 1_000_000})

    def test_agreed_history_is_reconstructible_per_version(self):
        domain = TrustDomain.create(["urn:org:a", "urn:org:b"])
        a = domain.organisation("urn:org:a")
        b = domain.organisation("urn:org:b")
        domain.share_object("ledger", {"balance": 0})
        for amount in (10, 20, 30):
            a.propose_update("ledger", {"balance": amount})
        # Both parties can reconstruct every agreed version, in order.
        for org in (a, b):
            history = [
                org.state_store.state_at_version("ledger", version)
                for version in range(org.state_store.version_count("ledger"))
            ]
            assert history == [
                {"balance": 0},
                {"balance": 10},
                {"balance": 20},
                {"balance": 30},
            ]
