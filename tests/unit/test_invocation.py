"""Unit tests for non-repudiable service invocation (NR-Invocation)."""

import pytest

from repro import ComponentDescriptor, InvocationStatus, TokenType
from repro.core.invocation import (
    B2BInvocation,
    B2BInvocationHandler,
    NR_INVOCATION_PROTOCOL,
    nro_request_from,
)
from repro.container.interceptor import Invocation
from repro.core.messages import B2BProtocolMessage
from repro.errors import ProtocolError, RemoteInvocationError
from tests.conftest import QuoteService


@pytest.fixture(scope="module")
def invocation_domain(direct_domain):
    return direct_domain


@pytest.fixture(scope="module")
def client(invocation_domain):
    return invocation_domain.organisation("urn:org:party0")


@pytest.fixture(scope="module")
def server(invocation_domain):
    return invocation_domain.organisation("urn:org:party1")


class TestSuccessfulInvocation:
    def test_value_is_returned(self, client, server):
        outcome = client.invoke_non_repudiably(
            server.uri, "QuoteService", "quote", ["wheel"], {"quantity": 2}
        )
        assert outcome.succeeded
        assert outcome.value == {"part": "wheel", "quantity": 2, "price": 200}
        assert outcome.status is InvocationStatus.EXECUTED

    def test_both_parties_hold_all_four_tokens(self, client, server):
        outcome = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["door"])
        expected = {
            TokenType.NRO_REQUEST.value,
            TokenType.NRR_REQUEST.value,
            TokenType.NRO_RESPONSE.value,
            TokenType.NRR_RESPONSE.value,
        }
        client_types = {r.token_type for r in client.evidence_for_run(outcome.run_id)}
        server_types = {r.token_type for r in server.evidence_for_run(outcome.run_id)}
        assert client_types == expected
        assert server_types == expected

    def test_outcome_carries_verifiable_evidence(self, client, server, invocation_domain):
        outcome = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["hood"])
        nrr_request = outcome.evidence[TokenType.NRR_REQUEST.value]
        nro_response = outcome.evidence[TokenType.NRO_RESPONSE.value]
        assert nrr_request.issuer == server.uri
        assert nro_response.issuer == server.uri
        assert client.evidence_verifier.verify(nrr_request)
        assert client.evidence_verifier.verify(nro_response)

    def test_outcome_hands_back_the_request_token_without_a_store_read(
        self, client, server, monkeypatch
    ):
        store = client.evidence_store
        reads = []
        monkeypatch.setattr(
            store, "tokens_of_type", lambda *args: reads.append(args) or []
        )
        outcome = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["roof"])
        assert reads == []
        monkeypatch.undo()
        nro_request = outcome.evidence[TokenType.NRO_REQUEST.value]
        assert nro_request.issuer == client.uri
        assert client.evidence_verifier.verify(nro_request)
        # The stored copy, for callers that do not hold the token, is the same.
        assert nro_request_from(client.coordinator.services, outcome.run_id) == nro_request
        assert nro_request_from(client.coordinator.services, "inv-unknown") is None
        types = [r.token_type for r in client.evidence_for_run(outcome.run_id)]
        assert types == ["nro-request", "nrr-request", "nro-response", "nrr-response"]

    def test_audit_trails_written_on_both_sides(self, client, server):
        outcome = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["mirror"])
        assert client.audit_records(category="nr.invocation.client", subject=outcome.run_id)
        assert server.audit_records(category="nr.invocation.server", subject=outcome.run_id)

    def test_protocol_uses_exactly_two_network_messages(self, client, server, invocation_domain):
        before = invocation_domain.network.statistics.snapshot()
        client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["bolt"])
        delta = invocation_domain.network.statistics.delta(before)
        # step 1+2 share one request/response exchange; step 3 is one more message.
        assert delta.messages_sent == 2

    def test_server_marks_run_complete_after_receipt(self, client, server):
        outcome = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["cable"])
        run = server.server_invocation_handler.runs.get(outcome.run_id)
        assert run is not None and run.finished

    def test_distinct_invocations_have_distinct_run_ids(self, client, server):
        first = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["a"])
        second = client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["b"])
        assert first.run_id != second.run_id


class TestFailuresAndEdgeCases:
    def test_business_exception_is_evidence_backed(self, client, server):
        outcome = client.invoke_non_repudiably(server.uri, "QuoteService", "failing_operation")
        assert outcome.status is InvocationStatus.EXECUTED
        assert outcome.exception_type == "ValueError"
        with pytest.raises(RemoteInvocationError):
            outcome.unwrap()
        # Evidence is still exchanged: the failure itself is non-repudiable.
        types = {r.token_type for r in server.evidence_for_run(outcome.run_id)}
        assert TokenType.NRO_RESPONSE.value in types

    def test_unknown_component_returns_failure_outcome(self, client, server):
        outcome = client.invoke_non_repudiably(server.uri, "NoSuchService", "anything")
        assert outcome.exception is not None

    def test_unconsumed_response_is_recorded(self, client, server):
        outcome = client.invoke_non_repudiably(
            server.uri, "QuoteService", "quote", ["panel"], consume_response=False
        )
        assert outcome.value is None
        assert not outcome.consumed
        receipts = server.evidence_store.tokens_of_type(
            outcome.run_id, TokenType.NRR_RESPONSE.value
        )
        assert receipts and receipts[0].token["details"]["consumed"] is False

    def test_at_most_once_for_retransmitted_request(self, client, server):
        service_instance = server.container.component("QuoteService").instance
        calls_before = service_instance.calls
        handler = B2BInvocationHandler.get_instance(
            "python", "direct", client.uri, client.coordinator
        )
        invocation = Invocation(component="QuoteService", method="quote", args=["axle"])
        b2b = B2BInvocation(target_party=server.uri, invocation=invocation)

        # Send the same step-1 message twice, as a lossy network might.
        services = client.coordinator.services
        request_payload = b2b.request_payload()
        from repro.crypto.rng import new_unique_id

        run_id = new_unique_id("inv")
        nro = services.evidence_builder.build(
            token_type=TokenType.NRO_REQUEST,
            run_id=run_id,
            step=1,
            recipient=server.uri,
            payload=request_payload,
        )
        message = B2BProtocolMessage(
            run_id=run_id,
            protocol=NR_INVOCATION_PROTOCOL,
            step=1,
            sender=client.uri,
            recipient=server.uri,
            payload=request_payload,
            tokens=[nro],
        )
        first = client.coordinator.request(message)
        second = client.coordinator.request(message)
        assert first.payload == second.payload
        assert service_instance.calls == calls_before + 1

    def test_forged_origin_evidence_is_rejected_without_execution(self, client, server):
        service_instance = server.container.component("QuoteService").instance
        calls_before = service_instance.calls
        services = client.coordinator.services
        from repro.crypto.rng import new_unique_id

        run_id = new_unique_id("inv")
        honest_payload = {"component": "QuoteService", "method": "quote", "args": ["cheap"],
                          "kwargs": {}, "caller": client.uri, "target_party": server.uri}
        forged_payload = dict(honest_payload, args=["expensive"])
        # Token signed over the honest payload but sent with a different payload.
        nro = services.evidence_builder.build(
            token_type=TokenType.NRO_REQUEST,
            run_id=run_id,
            step=1,
            recipient=server.uri,
            payload=honest_payload,
        )
        message = B2BProtocolMessage(
            run_id=run_id,
            protocol=NR_INVOCATION_PROTOCOL,
            step=1,
            sender=client.uri,
            recipient=server.uri,
            payload=forged_payload,
            tokens=[nro],
        )
        response = client.coordinator.request(message)
        assert response.payload["status"] == InvocationStatus.REJECTED.value
        assert service_instance.calls == calls_before

    def test_step1_without_token_raises(self, client, server):
        message = B2BProtocolMessage(
            run_id="run-x",
            protocol=NR_INVOCATION_PROTOCOL,
            step=1,
            sender=client.uri,
            recipient=server.uri,
            payload={"component": "QuoteService", "method": "quote", "args": [], "kwargs": {}},
        )
        with pytest.raises(Exception):
            client.coordinator.request(message)

    def test_receipt_for_unknown_run_rejected(self, client, server):
        services = client.coordinator.services
        token = services.evidence_builder.build(
            token_type=TokenType.NRR_RESPONSE,
            run_id="run-never-existed",
            step=3,
            recipient=server.uri,
            payload={"whatever": 1},
        )
        message = B2BProtocolMessage(
            run_id="run-never-existed",
            protocol=NR_INVOCATION_PROTOCOL,
            step=3,
            sender=client.uri,
            recipient=server.uri,
            payload={},
            tokens=[token],
        )
        with pytest.raises(Exception):
            client.coordinator.send(message)

    def test_unexpected_step_rejected_by_server_handler(self, server):
        message = B2BProtocolMessage(
            run_id="run-x",
            protocol=NR_INVOCATION_PROTOCOL,
            step=7,
            sender="urn:org:party0",
            recipient=server.uri,
            payload={},
        )
        with pytest.raises(ProtocolError):
            server.server_invocation_handler.process_request(message)
        with pytest.raises(ProtocolError):
            server.server_invocation_handler.process(message)


class TestInvocationHandlerFactory:
    def test_default_factory_resolves(self, client):
        handler = B2BInvocationHandler.get_instance(
            "python", "direct", client.uri, client.coordinator
        )
        assert isinstance(handler, B2BInvocationHandler)

    def test_unknown_platform_rejected(self, client):
        with pytest.raises(ProtocolError):
            B2BInvocationHandler.get_instance("jboss", "exotic", client.uri, client.coordinator)

    def test_custom_factory_registration(self, client):
        class CustomHandler(B2BInvocationHandler):
            pass

        B2BInvocationHandler.register_factory("test-platform", "test-protocol", CustomHandler)
        try:
            handler = B2BInvocationHandler.get_instance(
                "test-platform", "test-protocol", client.uri, client.coordinator
            )
            assert isinstance(handler, CustomHandler)
            with pytest.raises(ProtocolError):
                B2BInvocationHandler.register_factory(
                    "test-platform", "test-protocol", CustomHandler
                )
        finally:
            B2BInvocationHandler._factories.pop(("test-platform", "test-protocol"), None)

    def test_request_payload_structure(self, client, server):
        invocation = Invocation(
            component="QuoteService", method="quote", args=["x"], kwargs={"quantity": 1},
            caller=client.uri,
        )
        b2b = B2BInvocation(target_party=server.uri, invocation=invocation)
        payload = b2b.request_payload()
        assert payload["component"] == "QuoteService"
        assert payload["target_party"] == server.uri
        assert payload["caller"] == client.uri
