"""Application-specific validation of proposed updates.

"The controller uses application-specific validation listeners to validate
state and membership changes proposed by remote parties" (Section 4.3,
Figure 8 shows validators implemented as session beans).  A validator
receives the proposing party, the object, the current agreed state and the
proposed state and returns a :class:`ValidationDecision`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class ValidationDecision:
    """Outcome of validating a proposed update."""

    accepted: bool
    reason: str = ""
    validator: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "accepted": self.accepted,
            "reason": self.reason,
            "validator": self.validator,
        }


class _LazyState:
    """``ValidationContext.current_state``: a loader given in its place runs
    on first read, once -- most validators never look at the current state,
    and producing it means decoding the whole replica."""

    def __get__(self, context: Any, owner: Any = None) -> Any:
        if context is None:
            raise AttributeError("current_state")  # i.e. the field has no default
        state = context.__dict__["current_state"]
        if callable(state):
            state = context.__dict__["current_state"] = state()
        return state

    def __set__(self, context: Any, state: Any) -> None:
        context.__dict__["current_state"] = state


@dataclass(frozen=True)
class ValidationContext:
    """Everything a validator may inspect when reaching a decision.

    ``current_state`` is the validator's own copy of the agreed state, or a
    zero-argument callable producing that copy when it is first read.
    """

    object_id: str
    proposer: str
    current_state: Any = _LazyState()
    proposed_state: Any
    base_version: int
    attributes: Dict[str, Any] = field(default_factory=dict)


class StateValidator:
    """Base class for validation listeners."""

    #: name recorded in decision evidence
    name: str = "validator"

    def validate(self, context: ValidationContext) -> ValidationDecision:
        """Return a decision on the proposed update."""
        raise NotImplementedError


class AcceptAllValidator(StateValidator):
    """Accepts every proposal (the default when no validator is configured)."""

    name = "accept-all"

    def validate(self, context: ValidationContext) -> ValidationDecision:
        return ValidationDecision(accepted=True, validator=self.name)


class RejectAllValidator(StateValidator):
    """Rejects every proposal (useful in tests and fault-injection scenarios)."""

    name = "reject-all"

    def __init__(self, reason: str = "policy rejects all updates") -> None:
        self._reason = reason

    def validate(self, context: ValidationContext) -> ValidationDecision:
        return ValidationDecision(accepted=False, reason=self._reason, validator=self.name)


class CallableValidator(StateValidator):
    """Adapts a plain function ``(context) -> bool | ValidationDecision``."""

    def __init__(self, func: Callable[[ValidationContext], Any], name: str = "") -> None:
        self._func = func
        self.name = name or getattr(func, "__name__", "callable-validator")

    def validate(self, context: ValidationContext) -> ValidationDecision:
        outcome = self._func(context)
        if isinstance(outcome, ValidationDecision):
            if outcome.validator:
                return outcome
            return ValidationDecision(
                accepted=outcome.accepted, reason=outcome.reason, validator=self.name
            )
        return ValidationDecision(accepted=bool(outcome), validator=self.name)


class CompositeValidator(StateValidator):
    """Combines several validators; the proposal must satisfy all of them."""

    name = "composite"

    def __init__(self, validators: Optional[List[StateValidator]] = None) -> None:
        self._validators: List[StateValidator] = list(validators or [])

    def add(self, validator: StateValidator) -> None:
        self._validators.append(validator)

    @property
    def validators(self) -> List[StateValidator]:
        return list(self._validators)

    def validate(self, context: ValidationContext) -> ValidationDecision:
        if not self._validators:
            return ValidationDecision(accepted=True, validator=self.name)
        reasons: List[str] = []
        for validator in self._validators:
            decision = validator.validate(context)
            if not decision.accepted:
                return ValidationDecision(
                    accepted=False,
                    reason=decision.reason or f"rejected by {validator.name}",
                    validator=validator.name,
                )
            if decision.reason:
                reasons.append(decision.reason)
        return ValidationDecision(
            accepted=True, reason="; ".join(reasons), validator=self.name
        )
