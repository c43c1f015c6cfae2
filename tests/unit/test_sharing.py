"""Unit tests for non-repudiable information sharing (NR-Sharing / B2BObjects)."""

import pytest

from repro import (
    CallableValidator,
    ComponentDescriptor,
    ComponentType,
    TokenType,
)
from repro.container.interceptor import Invocation
from repro.core.sharing import NR_SHARING_PROTOCOL
from repro.core.validators import ValidationDecision
from repro.errors import CoordinationError, MembershipError
from tests.conftest import SpecificationDocument, make_domain


@pytest.fixture
def sharing_domain():
    """Fresh three-party domain sharing one document per test."""
    domain = make_domain(3)
    domain.share_object("spec", {"sections": {}, "revision": 0})
    return domain


def orgs(domain):
    return [domain.organisation(uri) for uri in domain.party_uris()]


class TestAgreedUpdates:
    def test_unanimous_update_is_applied_everywhere(self, sharing_domain):
        a, b, c = orgs(sharing_domain)
        outcome = a.propose_update("spec", {"sections": {"intro": "v1"}, "revision": 1})
        assert outcome.agreed
        assert outcome.new_version == 1
        for org in (a, b, c):
            assert org.shared_state("spec") == {"sections": {"intro": "v1"}, "revision": 1}
            assert org.shared_version("spec") == 1

    def test_all_parties_share_the_same_state_digest(self, sharing_domain):
        a, b, c = orgs(sharing_domain)
        a.propose_update("spec", {"sections": {"x": "1"}, "revision": 1})
        digests = {org.controller.state_digest("spec") for org in (a, b, c)}
        assert len(digests) == 1

    def test_sequential_updates_from_different_proposers(self, sharing_domain):
        a, b, c = orgs(sharing_domain)
        a.propose_update("spec", {"sections": {"a": "1"}, "revision": 1})
        b.propose_update("spec", {"sections": {"a": "1", "b": "2"}, "revision": 2})
        c.propose_update("spec", {"sections": {"a": "1", "b": "2", "c": "3"}, "revision": 3})
        assert a.shared_version("spec") == 3
        assert a.shared_state("spec") == b.shared_state("spec") == c.shared_state("spec")

    def test_decisions_recorded_for_every_peer(self, sharing_domain):
        a, b, c = orgs(sharing_domain)
        outcome = a.propose_update("spec", {"sections": {"k": "v"}, "revision": 1})
        assert set(outcome.decisions) == {b.uri, c.uri}
        assert all(decision.accepted for decision in outcome.decisions.values())

    def test_one_backend_write_per_protocol_step(self, sharing_domain, monkeypatch):
        from repro.persistence.storage import InMemoryBackend

        a, b, c = orgs(sharing_domain)
        batches = []
        original = InMemoryBackend.put_many

        def recording(self, items):
            items = list(items)
            batches.append([key.split(":", 1)[0] for key, _ in items])
            original(self, items)

        monkeypatch.setattr(InMemoryBackend, "put_many", recording)
        outcome = a.propose_update("spec", {"sections": {"k": "v"}, "revision": 1})
        monkeypatch.undo()
        evidence = sorted(len(batch) for batch in batches if batch[0] == "evidence")
        # Proposer: NRO_update before the proposal leaves, the two decisions
        # and NR_outcome before the outcome does.  Each responder: NRO_update
        # with its decision, then the outcome with the other's decision.
        assert evidence == [1, 2, 2, 2, 2, 3]
        # Each replica applies with one write: snapshot + history entry +
        # compact outcome record.
        assert [batch for batch in batches if batch[0] == "state"] == [["state"] * 3] * 3
        for org in (b, c):
            records = org.evidence_for_run(outcome.run_id)
            assert [r.token_type for r in records] == [
                "nro-update", "nr-decision", "nr-outcome", "nr-decision",
            ]

    def test_evidence_held_by_proposer_and_peers(self, sharing_domain):
        a, b, c = orgs(sharing_domain)
        outcome = a.propose_update("spec", {"sections": {"k": "v"}, "revision": 1})
        proposer_types = {r.token_type for r in a.evidence_for_run(outcome.run_id)}
        assert TokenType.NRO_UPDATE.value in proposer_types
        assert TokenType.NR_DECISION.value in proposer_types
        assert TokenType.NR_OUTCOME.value in proposer_types
        for peer in (b, c):
            peer_types = {r.token_type for r in peer.evidence_for_run(outcome.run_id)}
            assert TokenType.NRO_UPDATE.value in peer_types
            assert TokenType.NR_OUTCOME.value in peer_types

    def test_state_store_records_agreed_versions(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        new_state = {"sections": {"k": "v"}, "revision": 1}
        a.propose_update("spec", new_state)
        assert a.state_store.is_agreed_state("spec", new_state)
        assert b.state_store.is_agreed_state("spec", new_state)

    def test_apply_change_mutator_helper(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)

        def add_section(state):
            state["sections"]["materials"] = "steel"
            state["revision"] += 1
            return state

        outcome = a.controller.apply_change("spec", add_section)
        assert outcome.agreed
        assert b.shared_state("spec")["sections"]["materials"] == "steel"


class TestVetoedUpdates:
    def test_veto_leaves_state_unchanged_everywhere(self, sharing_domain):
        a, b, c = orgs(sharing_domain)
        b.controller.add_validator(
            "spec", CallableValidator(lambda ctx: False, name="always-no")
        )
        before = a.shared_state("spec")
        outcome = a.propose_update("spec", {"sections": {"bad": "x"}, "revision": 1})
        assert not outcome.agreed
        assert outcome.new_version is None
        for org in (a, b, c):
            assert org.shared_state("spec") == before
            assert org.shared_version("spec") == 0
        with pytest.raises(CoordinationError):
            outcome.require_agreed()

    def test_veto_reason_is_reported(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        b.controller.add_validator(
            "spec",
            CallableValidator(
                lambda ctx: ValidationDecision(accepted=False, reason="budget exceeded"),
                name="budget",
            ),
        )
        outcome = a.propose_update("spec", {"sections": {}, "revision": 1})
        assert not outcome.agreed
        assert outcome.decisions[b.uri].reason == "budget exceeded"

    def test_validator_sees_current_and_proposed_state(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        observed = {}

        def record(context):
            observed["current"] = context.current_state
            observed["proposed"] = context.proposed_state
            observed["proposer"] = context.proposer
            return True

        b.controller.add_validator("spec", CallableValidator(record, name="recorder"))
        a.propose_update("spec", {"sections": {"new": "yes"}, "revision": 1})
        assert observed["current"]["revision"] == 0
        assert observed["proposed"]["sections"] == {"new": "yes"}
        assert observed["proposer"] == a.uri

    def test_validator_gets_its_own_copy_of_the_current_state(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        copies = []

        def vandal(context):
            copies.append(context.current_state)
            context.current_state["sections"]["defaced"] = "yes"
            context.current_state["revision"] = 99
            assert context.current_state is copies[-1]  # read once, cached
            return True

        b.controller.add_validator("spec", CallableValidator(vandal, name="vandal"))
        b.controller.add_validator("spec", CallableValidator(vandal, name="vandal-2"))
        assert a.propose_update("spec", {"sections": {}, "revision": 1}).agreed
        assert a.propose_update("spec", {"sections": {"x": "1"}, "revision": 2}).agreed
        # Each context decoded its own copy; none of them is the replica.
        assert copies[0] is copies[1] and copies[1] is not copies[2]
        assert copies[2] == {"sections": {"defaced": "yes"}, "revision": 99}
        assert b.shared_state("spec") == {"sections": {"x": "1"}, "revision": 2}

    def test_current_state_is_not_decoded_unless_a_validator_reads_it(
        self, sharing_domain, monkeypatch
    ):
        from repro.core import sharing

        a, b, c = orgs(sharing_domain)
        c.controller.add_validator(
            "spec", CallableValidator(lambda ctx: ctx.proposed_state["revision"] > 0)
        )
        decoded = []
        state_copy = sharing._SharedObject.state_copy  # noqa: SLF001
        monkeypatch.setattr(
            sharing._SharedObject,  # noqa: SLF001
            "state_copy",
            lambda shared: decoded.append(shared.object_id) or state_copy(shared),
        )
        assert a.propose_update("spec", {"sections": {}, "revision": 1}).agreed
        assert decoded == []  # no validator at b, one at c that never looked

    def test_stale_base_version_rejected(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        a.propose_update("spec", {"sections": {"x": "1"}, "revision": 1})
        # Manually craft a proposal based on the stale version 0.
        decision = b.controller._validate_proposal(  # noqa: SLF001
            a.uri,
            {"object_id": "spec", "base_version": 0, "proposed_state": {}, "proposer": a.uri},
        )
        assert not decision.accepted
        assert "stale" in decision.reason

    def test_non_member_proposals_rejected(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        decision = b.controller._validate_proposal(  # noqa: SLF001
            "urn:org:stranger",
            {"object_id": "spec", "base_version": 0, "proposed_state": {}, "proposer": "urn:org:stranger"},
        )
        assert not decision.accepted

    def test_unknown_object_proposals_rejected(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        decision = b.controller._validate_proposal(  # noqa: SLF001
            a.uri,
            {"object_id": "not-shared", "base_version": 0, "proposed_state": {}, "proposer": a.uri},
        )
        assert not decision.accepted


class TestControllerConfiguration:
    def test_duplicate_registration_rejected(self, sharing_domain):
        a = orgs(sharing_domain)[0]
        with pytest.raises(CoordinationError):
            a.share_object("spec", {}, sharing_domain.party_uris())

    def test_registration_must_include_self(self, sharing_domain):
        a = orgs(sharing_domain)[0]
        with pytest.raises(MembershipError):
            a.share_object("other-doc", {}, ["urn:org:party1", "urn:org:party2"])

    def test_unknown_object_access_raises(self, sharing_domain):
        a = orgs(sharing_domain)[0]
        with pytest.raises(CoordinationError):
            a.shared_state("does-not-exist")

    def test_members_and_peers(self, sharing_domain):
        a = orgs(sharing_domain)[0]
        assert set(a.controller.members("spec")) == set(sharing_domain.party_uris())
        assert a.uri not in a.controller.peers("spec")
        assert len(a.controller.peers("spec")) == 2

    def test_object_ids_listed(self, sharing_domain):
        a = orgs(sharing_domain)[0]
        assert a.controller.object_ids() == ["spec"]
        assert a.controller.is_shared("spec")

    def test_bound_component_must_expose_state_accessors(self, sharing_domain):
        a = orgs(sharing_domain)[0]

        class NotAnEntity:
            pass

        with pytest.raises(CoordinationError):
            a.controller.bind_component("spec", NotAnEntity())


class TestMembershipProtocols:
    def test_connect_admits_new_member_with_bootstrap(self, domain_factory):
        domain = domain_factory(3)
        a, b, c = orgs(domain)
        # Initially only a and b share the document.
        for org in (a, b):
            org.share_object("contract", {"terms": "draft"}, [a.uri, b.uri])
        a.propose_update("contract", {"terms": "v1"})
        outcome = a.controller.connect_member("contract", c.uri)
        assert outcome.agreed
        for org in (a, b, c):
            assert org.controller.is_shared("contract")
            assert set(org.controller.members("contract")) == {a.uri, b.uri, c.uri}
        # The newly admitted member received the current state and version.
        assert c.shared_state("contract") == {"terms": "v1"}
        assert c.shared_version("contract") == 1
        # And can immediately participate in coordination.
        update = c.propose_update("contract", {"terms": "v2"})
        assert update.agreed
        assert a.shared_state("contract") == {"terms": "v2"}

    def test_disconnect_removes_member_everywhere(self, domain_factory):
        domain = domain_factory(3)
        a, b, c = orgs(domain)
        domain.share_object("contract", {"terms": "draft"})
        outcome = a.controller.disconnect_member("contract", c.uri)
        assert outcome.agreed
        assert set(a.controller.members("contract")) == {a.uri, b.uri}
        assert set(b.controller.members("contract")) == {a.uri, b.uri}
        # The removed member no longer shares the object.
        assert not c.controller.is_shared("contract")
        # Updates continue among the remaining members.
        assert a.propose_update("contract", {"terms": "final"}).agreed

    def test_connect_of_existing_member_rejected(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        with pytest.raises(MembershipError):
            a.controller.connect_member("spec", b.uri)

    def test_disconnect_of_non_member_rejected(self, sharing_domain):
        a = orgs(sharing_domain)[0]
        with pytest.raises(MembershipError):
            a.controller.disconnect_member("spec", "urn:org:stranger")


class TestRollup:
    def test_rollup_coordinates_once(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        runs_before = len(a.evidence_store.run_ids())
        with a.controller.rollup("spec"):
            a.propose_update("spec", {"sections": {"s1": "a"}, "revision": 1})
            a.propose_update("spec", {"sections": {"s1": "a", "s2": "b"}, "revision": 2})
        # Exactly one coordination run happened for the whole rollup.
        assert len(a.evidence_store.run_ids()) == runs_before + 1
        assert b.shared_state("spec")["sections"] == {"s1": "a", "s2": "b"}
        assert b.shared_version("spec") == 1

    def test_rollup_reverts_on_exception(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        before = a.shared_state("spec")
        with pytest.raises(RuntimeError):
            with a.controller.rollup("spec"):
                a.propose_update("spec", {"sections": {"tmp": "x"}, "revision": 1})
                raise RuntimeError("abandon changes")
        assert a.shared_state("spec") == before
        assert b.shared_state("spec") == before

    def test_rollup_veto_restores_component(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        b.controller.add_validator("spec", CallableValidator(lambda ctx: False, name="no"))
        with pytest.raises(CoordinationError):
            with a.controller.rollup("spec"):
                a.propose_update("spec", {"sections": {"tmp": "x"}, "revision": 1})
        assert a.shared_state("spec")["sections"] == {}


class TestEntityComponentIntegration:
    def test_mutator_on_entity_bean_triggers_coordination(self, domain_factory):
        domain = domain_factory(2)
        a, b = orgs(domain)
        domain.share_object("spec-doc", SpecificationDocument().get_state())
        descriptor = ComponentDescriptor(
            name="spec-doc",
            component_type=ComponentType.ENTITY,
            b2b_object=True,
        )
        document_a = SpecificationDocument()
        a.deploy(document_a, descriptor)
        document_b = SpecificationDocument()
        b.deploy(document_b, ComponentDescriptor(
            name="spec-doc", component_type=ComponentType.ENTITY, b2b_object=True
        ))

        result = a.container.dispatch(
            Invocation(component="spec-doc", method="set_section", args=["intro", "hello"])
        )
        assert result.succeeded
        # Both replicas and both entity instances converge on the agreed state.
        assert a.shared_state("spec-doc")["sections"] == {"intro": "hello"}
        assert b.shared_state("spec-doc")["sections"] == {"intro": "hello"}
        assert document_b.read_section("intro") == "hello"

    def test_read_methods_do_not_coordinate(self, domain_factory):
        domain = domain_factory(2)
        a, b = orgs(domain)
        domain.share_object("spec-doc", SpecificationDocument().get_state())
        a.deploy(
            SpecificationDocument(),
            ComponentDescriptor(name="spec-doc", component_type=ComponentType.ENTITY, b2b_object=True),
        )
        runs_before = len(a.evidence_store.run_ids())
        result = a.container.dispatch(
            Invocation(component="spec-doc", method="read_section", args=["intro"])
        )
        assert result.succeeded
        assert len(a.evidence_store.run_ids()) == runs_before

    def test_vetoed_mutation_rolls_back_entity(self, domain_factory):
        domain = domain_factory(2)
        a, b = orgs(domain)
        domain.share_object("spec-doc", SpecificationDocument().get_state())
        document_a = SpecificationDocument()
        a.deploy(
            document_a,
            ComponentDescriptor(name="spec-doc", component_type=ComponentType.ENTITY, b2b_object=True),
        )
        b.controller.add_validator("spec-doc", CallableValidator(lambda ctx: False, name="no"))
        result = a.container.dispatch(
            Invocation(component="spec-doc", method="set_section", args=["intro", "rejected"])
        )
        assert not result.succeeded
        assert document_a.read_section("intro") is None
        assert a.shared_state("spec-doc")["sections"] == {}


class TestProtocolHandlerRobustness:
    def test_unknown_action_rejected(self, sharing_domain):
        from repro.core.messages import B2BProtocolMessage
        from repro.errors import ProtocolError

        a, b, _ = orgs(sharing_domain)
        message = B2BProtocolMessage(
            run_id="r",
            protocol=NR_SHARING_PROTOCOL,
            step=1,
            sender=a.uri,
            recipient=b.uri,
            attributes={"action": "nonsense"},
        )
        with pytest.raises(ProtocolError):
            b.controller.handler.process_request(message)
        one_way = B2BProtocolMessage(
            run_id="r2",
            protocol=NR_SHARING_PROTOCOL,
            step=3,
            sender=a.uri,
            recipient=b.uri,
            attributes={"action": "nonsense"},
        )
        with pytest.raises(ProtocolError):
            b.controller.handler.process(one_way)

    def test_duplicate_outcome_delivery_is_idempotent(self, sharing_domain):
        a, b, _ = orgs(sharing_domain)
        outcome = a.propose_update("spec", {"sections": {"k": "v"}, "revision": 1})
        assert b.shared_version("spec") == 1
        # Replaying the outcome (e.g. duplicated by the network) changes nothing.
        runs = b.controller.handler.runs
        assert runs.get(outcome.run_id) is not None
        assert b.shared_version("spec") == 1
