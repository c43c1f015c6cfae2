"""Unit tests for the TTP relay handler and arbitrator internals."""

import pytest

from repro import ComponentDescriptor, DeploymentStyle, TokenType, TrustDomain
from repro.core.messages import B2BProtocolMessage
from repro.core.ttp import FAIR_EXCHANGE_PROTOCOL, RelayProtocolHandler, install_relays
from repro.errors import FairExchangeError, ProtocolError
from tests.conftest import QuoteService


@pytest.fixture(scope="module")
def inline_domain():
    domain = TrustDomain.create(
        ["urn:org:party0", "urn:org:party1"], style=DeploymentStyle.INLINE_TTP
    )
    provider = domain.organisation("urn:org:party1")
    provider.deploy(
        QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
    )
    return domain


class TestRelayHandler:
    def test_relay_counts_forwarded_messages(self, inline_domain):
        client = inline_domain.organisation("urn:org:party0")
        provider = inline_domain.organisation("urn:org:party1")
        relays = inline_domain.relays["urn:ttp:inline"]
        invocation_relay = relays["nr-invocation"]
        before = invocation_relay.relayed_messages
        client.invoke_non_repudiably(provider.uri, "QuoteService", "quote", ["x"])
        assert invocation_relay.relayed_messages == before + 2

    def test_relay_appends_ttp_evidence_to_messages(self, inline_domain):
        client = inline_domain.organisation("urn:org:party0")
        provider = inline_domain.organisation("urn:org:party1")
        outcome = client.invoke_non_repudiably(provider.uri, "QuoteService", "quote", ["y"])
        ttp = inline_domain.ttps["urn:ttp:inline"]
        relay_tokens = ttp.evidence_store.tokens_of_type(
            outcome.run_id, TokenType.TTP_RELAY.value
        )
        # The TTP notarised (at least) the forward and return legs of step 1/2
        # and the forward leg of step 3.
        assert len(relay_tokens) >= 3
        for record in relay_tokens:
            assert record.token["issuer"] == "urn:ttp:inline"

    def test_relay_evidence_verifiable_by_the_parties(self, inline_domain):
        client = inline_domain.organisation("urn:org:party0")
        provider = inline_domain.organisation("urn:org:party1")
        outcome = client.invoke_non_repudiably(provider.uri, "QuoteService", "quote", ["z"])
        from repro.core.evidence import EvidenceToken

        ttp = inline_domain.ttps["urn:ttp:inline"]
        for record in ttp.evidence_store.tokens_of_type(outcome.run_id, TokenType.TTP_RELAY.value):
            token = EvidenceToken.from_stored(record)
            assert client.evidence_verifier.verify(token)
            assert provider.evidence_verifier.verify(token)

    def test_non_notarising_relay_adds_no_tokens(self):
        domain = TrustDomain.create(["urn:org:a", "urn:org:b"])
        from repro.core.organisation import Organisation

        ttp = Organisation("urn:ttp:silent", network=domain.network,
                           ca=domain.certificate_authority)
        relays = install_relays(ttp.coordinator, ["nr-invocation"], notarise=False)
        for uri in ("urn:org:a", "urn:org:b"):
            org = domain.organisation(uri)
            ttp.trust(org)
            org.evidence_verifier.pin_key(ttp.uri, ttp.public_key)
        domain.organisation("urn:org:a").route_via("urn:org:b", ttp.coordinator.address)
        provider = domain.organisation("urn:org:b")
        provider.deploy(
            QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
        )
        client = domain.organisation("urn:org:a")
        outcome = client.invoke_non_repudiably(provider.uri, "QuoteService", "quote", ["q"])
        assert outcome.succeeded
        assert relays["nr-invocation"].relayed_messages == 2
        assert ttp.evidence_store.total_records() == 0

    def test_install_relays_registers_one_handler_per_protocol(self, inline_domain):
        relays = inline_domain.relays["urn:ttp:inline"]
        assert all(isinstance(handler, RelayProtocolHandler) for handler in relays.values())
        ttp = inline_domain.ttps["urn:ttp:inline"]
        for protocol in relays:
            assert ttp.coordinator.has_handler(protocol)


class TestArbitratorInternals:
    @pytest.fixture
    def arbitrated(self):
        domain = TrustDomain.create(["urn:org:c", "urn:org:s"], with_arbitrator=True)
        server = domain.organisation("urn:org:s")
        server.deploy(
            QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
        )
        return domain

    def test_unknown_action_rejected(self, arbitrated):
        arbitrator = arbitrated.arbitrator
        message = B2BProtocolMessage(
            run_id="r", protocol=FAIR_EXCHANGE_PROTOCOL, step=1,
            sender="urn:org:c", recipient=arbitrated.arbitrator_uri,
            payload={"run_id": "r"}, attributes={"action": "bribe"},
        )
        with pytest.raises(ProtocolError):
            arbitrator.process_request(message)

    def test_resolution_without_tokens_rejected(self, arbitrated):
        arbitrator = arbitrated.arbitrator
        message = B2BProtocolMessage(
            run_id="r", protocol=FAIR_EXCHANGE_PROTOCOL, step=1,
            sender="urn:org:s", recipient=arbitrated.arbitrator_uri,
            payload={"run_id": "r"}, attributes={"action": "resolve"},
        )
        with pytest.raises(FairExchangeError):
            arbitrator.process_request(message)

    def test_decision_record_per_run(self, arbitrated):
        client = arbitrated.organisation("urn:org:c")
        server = arbitrated.organisation("urn:org:s")
        outcome = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["x"])
        assert arbitrated.arbitrator.decision_for(outcome.run_id) is None
        from repro.core.fair_exchange import FairExchangeClient

        FairExchangeClient(
            server.uri, server.coordinator, arbitrated.arbitrator_uri
        ).request_resolution(outcome.run_id)
        assert arbitrated.arbitrator.decision_for(outcome.run_id) == "resolved"

    def test_abort_is_idempotent(self, arbitrated):
        client = arbitrated.organisation("urn:org:c")
        from repro.core.fair_exchange import FairExchangeClient

        exchange = FairExchangeClient(
            client.uri, client.coordinator, arbitrated.arbitrator_uri
        )
        first = exchange.request_abort("run-abandoned")
        second = exchange.request_abort("run-abandoned")
        assert first.token_type == second.token_type == TokenType.TTP_ABORT.value
        assert arbitrated.arbitrator.decision_for("run-abandoned") == "aborted"
