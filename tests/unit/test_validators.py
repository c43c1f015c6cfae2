"""Unit tests for validation listeners."""

import pytest

from repro.core.validators import (
    AcceptAllValidator,
    CallableValidator,
    CompositeValidator,
    RejectAllValidator,
    StateValidator,
    ValidationContext,
    ValidationDecision,
)


@pytest.fixture
def context():
    return ValidationContext(
        object_id="spec",
        proposer="urn:org:a",
        current_state={"revision": 0},
        proposed_state={"revision": 1},
        base_version=0,
    )


class TestBasicValidators:
    def test_accept_all(self, context):
        decision = AcceptAllValidator().validate(context)
        assert decision.accepted
        assert decision.validator == "accept-all"

    def test_reject_all_with_reason(self, context):
        decision = RejectAllValidator(reason="frozen").validate(context)
        assert not decision.accepted
        assert decision.reason == "frozen"

    def test_base_class_is_abstract(self, context):
        with pytest.raises(NotImplementedError):
            StateValidator().validate(context)

    def test_decision_to_dict(self):
        decision = ValidationDecision(accepted=True, reason="ok", validator="v")
        assert decision.to_dict() == {"accepted": True, "reason": "ok", "validator": "v"}


class TestCallableValidator:
    def test_boolean_return(self, context):
        assert CallableValidator(lambda ctx: True).validate(context).accepted
        assert not CallableValidator(lambda ctx: False).validate(context).accepted

    def test_decision_return_is_passed_through(self, context):
        validator = CallableValidator(
            lambda ctx: ValidationDecision(accepted=False, reason="nope", validator="custom")
        )
        decision = validator.validate(context)
        assert decision.reason == "nope"
        assert decision.validator == "custom"

    def test_name_defaults_to_function_name(self, context):
        def budget_check(ctx):
            return True

        assert CallableValidator(budget_check).validate(context).validator == "budget_check"

    def test_explicit_name_overrides(self, context):
        validator = CallableValidator(lambda ctx: True, name="named")
        assert validator.validate(context).validator == "named"

    def test_context_fields_available(self):
        captured = {}

        def inspect(ctx):
            captured.update(
                object_id=ctx.object_id,
                proposer=ctx.proposer,
                base_version=ctx.base_version,
            )
            return True

        context = ValidationContext("doc", "urn:org:z", {}, {}, 4)
        CallableValidator(inspect).validate(context)
        assert captured == {"object_id": "doc", "proposer": "urn:org:z", "base_version": 4}


    def test_current_state_may_be_a_loader_run_on_first_read(self):
        import dataclasses

        loads = []

        def load():
            loads.append(1)
            return {"revision": 7}

        context = ValidationContext("doc", "urn:org:z", load, {}, 4)
        assert loads == []
        assert context.current_state == {"revision": 7}
        assert context.current_state is context.current_state and loads == [1]
        assert context == ValidationContext("doc", "urn:org:z", {"revision": 7}, {}, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            context.current_state = {}
        with pytest.raises(TypeError):
            ValidationContext("doc", "urn:org:z")  # still a required field


class TestCompositeValidator:
    def test_empty_composite_accepts(self, context):
        assert CompositeValidator().validate(context).accepted

    def test_all_must_accept(self, context):
        composite = CompositeValidator([AcceptAllValidator(), AcceptAllValidator()])
        assert composite.validate(context).accepted

    def test_single_rejection_vetoes(self, context):
        composite = CompositeValidator(
            [AcceptAllValidator(), RejectAllValidator(reason="no"), AcceptAllValidator()]
        )
        decision = composite.validate(context)
        assert not decision.accepted
        assert decision.validator == "reject-all"
        assert decision.reason == "no"

    def test_add_appends_validator(self, context):
        composite = CompositeValidator()
        composite.add(RejectAllValidator())
        assert len(composite.validators) == 1
        assert not composite.validate(context).accepted

    def test_reasons_from_accepting_validators_are_collected(self, context):
        composite = CompositeValidator(
            [
                CallableValidator(
                    lambda ctx: ValidationDecision(accepted=True, reason="checked budget"),
                    name="budget",
                ),
                CallableValidator(
                    lambda ctx: ValidationDecision(accepted=True, reason="checked schedule"),
                    name="schedule",
                ),
            ]
        )
        decision = composite.validate(context)
        assert decision.accepted
        assert "checked budget" in decision.reason
        assert "checked schedule" in decision.reason
