"""Property-based tests of the protocol-level invariants.

These run whole protocol instances per example, so the domains use the
lightweight HMAC scheme and the example counts are kept modest; the goal is
to explore many *sequences* of interactions, not many keys.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CallableValidator, ComponentDescriptor, TokenType, TrustDomain
from repro.core.evidence import EvidenceToken

_SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def fast_domain(parties):
    uris = [f"urn:org:p{i}" for i in range(parties)]
    return TrustDomain.create(uris, scheme="hmac")


class EchoService:
    def echo(self, value):
        return {"echo": value}


class TestInvocationInvariants:
    @_SETTINGS
    @given(
        st.lists(
            st.one_of(st.integers(-1000, 1000), st.text(max_size=20)),
            min_size=1,
            max_size=5,
        )
    )
    def test_evidence_completeness_for_every_invocation(self, payloads):
        """Every completed invocation leaves all four tokens on both sides."""
        domain = fast_domain(2)
        client = domain.organisation("urn:org:p0")
        server = domain.organisation("urn:org:p1")
        server.deploy(EchoService(), ComponentDescriptor(name="Echo", non_repudiation=True))
        expected = {
            TokenType.NRO_REQUEST.value,
            TokenType.NRR_REQUEST.value,
            TokenType.NRO_RESPONSE.value,
            TokenType.NRR_RESPONSE.value,
        }
        for payload in payloads:
            outcome = client.invoke_non_repudiably(server.uri, "Echo", "echo", [payload])
            assert outcome.value == {"echo": payload}
            for org in (client, server):
                token_types = {r.token_type for r in org.evidence_for_run(outcome.run_id)}
                assert token_types == expected

    @_SETTINGS
    @given(st.lists(st.text(max_size=10), min_size=1, max_size=4))
    def test_attribution_every_stored_token_verifies(self, payloads):
        """Every token a party stores verifies against the claimed issuer's key."""
        domain = fast_domain(2)
        client = domain.organisation("urn:org:p0")
        server = domain.organisation("urn:org:p1")
        server.deploy(EchoService(), ComponentDescriptor(name="Echo", non_repudiation=True))
        for payload in payloads:
            client.invoke_non_repudiably(server.uri, "Echo", "echo", [payload])
        for org in (client, server):
            for run_id in org.evidence_store.run_ids():
                for record in org.evidence_for_run(run_id):
                    token = EvidenceToken.from_stored(record)
                    assert org.evidence_verifier.verify(token), (
                        f"{org.uri} stores a token from {token.issuer} that does not verify"
                    )


class TestSharingInvariants:
    @_SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),       # proposer index
                st.dictionaries(st.sampled_from("abcd"), st.integers(0, 9), max_size=3),
                st.booleans(),                                # whether party 2 vetoes
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_unanimity_and_replica_consistency(self, proposals):
        """State changes only on unanimous agreement and replicas never diverge."""
        domain = fast_domain(3)
        organisations = [domain.organisation(uri) for uri in domain.party_uris()]
        veto_switch = {"active": False}
        domain.share_object("doc", {"content": {}})
        organisations[2].controller.add_validator(
            "doc",
            CallableValidator(lambda ctx: not veto_switch["active"], name="switchable"),
        )

        for proposer_index, content, veto in proposals:
            veto_switch["active"] = veto
            proposer = organisations[proposer_index]
            before_states = [org.shared_state("doc") for org in organisations]
            before_versions = [org.shared_version("doc") for org in organisations]
            outcome = proposer.propose_update("doc", {"content": content})

            states = [org.shared_state("doc") for org in organisations]
            versions = [org.shared_version("doc") for org in organisations]
            # Replicas are always mutually consistent.
            assert states.count(states[0]) == len(states)
            assert versions.count(versions[0]) == len(versions)
            if veto and proposer_index != 2:
                assert not outcome.agreed
                assert states == before_states
                assert versions == before_versions
            elif outcome.agreed:
                assert states[0] == {"content": content}
                assert versions[0] == before_versions[0] + 1

    @_SETTINGS
    @given(st.lists(st.dictionaries(st.sampled_from("xyz"), st.integers(0, 9), max_size=3),
                    min_size=1, max_size=5))
    def test_every_applied_state_is_recorded_as_agreed(self, updates):
        """Every state ever applied can later be proven to have been agreed."""
        domain = fast_domain(2)
        a = domain.organisation("urn:org:p0")
        b = domain.organisation("urn:org:p1")
        domain.share_object("doc", {"step": -1, "data": {}})
        applied_states = [{"step": -1, "data": {}}]
        for step, data in enumerate(updates):
            outcome = a.propose_update("doc", {"step": step, "data": data})
            assert outcome.agreed
            applied_states.append({"step": step, "data": data})
        for state in applied_states:
            assert a.state_store.is_agreed_state("doc", state)
            assert b.state_store.is_agreed_state("doc", state)
