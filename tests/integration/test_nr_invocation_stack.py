"""Integration tests for the full NR-Invocation stack (Figures 4, 6, 7).

These tests exercise the whole path the paper describes: EJB-style client ->
client proxy with NR interceptor -> B2BInvocationHandler -> coordinators over
the (simulated) network -> server NR interceptor -> interceptor chain ->
component, with evidence persisted and audited at each trusted interceptor.
"""

import pytest

from repro import ComponentDescriptor, EvidenceToken, TokenType, TrustDomain
from repro.container.services import CallStatisticsInterceptor, LoggingInterceptor
from repro.errors import InterceptorError
from tests.conftest import QuoteService


@pytest.fixture(scope="module")
def stack():
    domain = TrustDomain.create(["urn:org:dealer", "urn:org:manufacturer"])
    dealer = domain.organisation("urn:org:dealer")
    manufacturer = domain.organisation("urn:org:manufacturer")

    # The manufacturer's container also runs ordinary container services,
    # showing the NR service composes with them (Figure 6).
    statistics = CallStatisticsInterceptor()
    manufacturer.container.add_default_interceptor(statistics)
    manufacturer.container.add_default_interceptor(
        LoggingInterceptor(manufacturer.audit_log)
    )
    manufacturer.deploy(
        QuoteService(),
        ComponentDescriptor(name="QuoteService", non_repudiation=True),
    )
    return domain, dealer, manufacturer, statistics


class TestEndToEndInvocation:
    def test_business_result_is_correct(self, stack):
        _, dealer, manufacturer, _ = stack
        proxy = dealer.nr_proxy(manufacturer, "QuoteService")
        result = proxy.quote("carbon-fibre body", quantity=2)
        assert result == {"part": "carbon-fibre body", "quantity": 2, "price": 200}

    def test_container_services_observed_the_call(self, stack):
        _, dealer, manufacturer, statistics = stack
        proxy = dealer.nr_proxy(manufacturer, "QuoteService")
        before = statistics.total_calls()
        proxy.quote("brake disc")
        assert statistics.total_calls() == before + 1
        assert manufacturer.audit_records(category="container.invocation")

    def test_cross_verification_of_evidence(self, stack):
        """Each party can verify every token the *other* party stored."""
        _, dealer, manufacturer, _ = stack
        outcome = dealer.invoke_non_repudiably(
            manufacturer.uri, "QuoteService", "quote", ["suspension"]
        )
        for holder, checker in ((dealer, manufacturer), (manufacturer, dealer)):
            for record in holder.evidence_for_run(outcome.run_id):
                token = EvidenceToken.from_stored(record)
                assert checker.evidence_verifier.verify(token)

    def test_audit_logs_remain_tamper_evident(self, stack):
        _, dealer, manufacturer, _ = stack
        dealer.invoke_non_repudiably(manufacturer.uri, "QuoteService", "quote", ["gear"])
        assert dealer.audit_log.verify_integrity()
        assert manufacturer.audit_log.verify_integrity()

    def test_many_sequential_invocations_keep_distinct_evidence(self, stack):
        _, dealer, manufacturer, _ = stack
        run_ids = [
            dealer.invoke_non_repudiably(
                manufacturer.uri, "QuoteService", "quote", [f"part-{i}"]
            ).run_id
            for i in range(5)
        ]
        assert len(set(run_ids)) == 5
        for run_id in run_ids:
            assert len(dealer.evidence_for_run(run_id)) == 4
            assert len(manufacturer.evidence_for_run(run_id)) == 4

    def test_multiple_clients_of_one_service(self, stack):
        domain, _, manufacturer, _ = stack
        # A second client organisation joins the domain dynamically.
        # (Simplest path: build a new domain including a third party.)
        domain3 = TrustDomain.create(
            ["urn:org:dealer", "urn:org:partsB", "urn:org:manufacturer"]
        )
        maker = domain3.organisation("urn:org:manufacturer")
        maker.deploy(
            QuoteService(),
            ComponentDescriptor(name="QuoteService", non_repudiation=True),
        )
        for client_uri in ("urn:org:dealer", "urn:org:partsB"):
            client = domain3.organisation(client_uri)
            outcome = client.invoke_non_repudiably(
                maker.uri, "QuoteService", "quote", ["shared part"]
            )
            assert outcome.succeeded
            # The server's evidence names the right originator for each run.
            origin = maker.evidence_store.tokens_of_type(
                outcome.run_id, TokenType.NRO_REQUEST.value
            )[0]
            assert origin.token["issuer"] == client_uri

    def test_plain_and_nr_access_can_coexist_on_different_components(self, stack):
        domain, dealer, manufacturer, _ = stack
        manufacturer.deploy(
            QuoteService(), ComponentDescriptor(name="CatalogueService")
        )
        plain = dealer.plain_proxy(manufacturer, "CatalogueService")
        assert plain.quote("catalogue item")["price"] == 100
        protected = dealer.plain_proxy(manufacturer, "QuoteService")
        with pytest.raises(InterceptorError):
            protected.quote("catalogue item")

    def test_server_work_not_consumed_is_still_evidenced(self, stack):
        """At-most-once: the server may do work the client does not consume."""
        _, dealer, manufacturer, _ = stack
        outcome = dealer.invoke_non_repudiably(
            manufacturer.uri, "QuoteService", "quote", ["spoiler"], consume_response=False
        )
        assert outcome.value is None
        receipt = manufacturer.evidence_store.tokens_of_type(
            outcome.run_id, TokenType.NRR_RESPONSE.value
        )[0]
        assert receipt.token["details"]["consumed"] is False
        # The server can later prove it produced the response.
        assert manufacturer.evidence_store.tokens_of_type(
            outcome.run_id, TokenType.NRO_RESPONSE.value
        )
