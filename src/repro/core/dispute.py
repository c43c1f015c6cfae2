"""Dispute resolution over stored non-repudiation evidence.

"Audit ensures that evidence is available in case of dispute and to inform
future interactions" (Section 2); "to support dispute resolution, the fact
that trusted interceptors mediated the interaction provides any honest party
with irrefutable evidence of their own actions within the domain and of the
observed actions of other parties" (Section 3.1).

The :class:`DisputeResolver` is an adjudicator: given a claim (a party denies
having performed some action) and the evidence presented by the other party,
it verifies the evidence cryptographically and returns a :class:`Verdict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.core.evidence import EvidenceToken, EvidenceVerifier, TokenType
from repro.errors import DisputeError
from repro.persistence.evidence_store import EvidenceStore


class ClaimType(Enum):
    """The denials the resolver can adjudicate."""

    #: "I (the client) never submitted that request."
    DENIES_REQUEST_ORIGIN = "denies-request-origin"
    #: "I (the server) never received that request."
    DENIES_REQUEST_RECEIPT = "denies-request-receipt"
    #: "I (the server) never produced that response."
    DENIES_RESPONSE_ORIGIN = "denies-response-origin"
    #: "I (the client) never received that response."
    DENIES_RESPONSE_RECEIPT = "denies-response-receipt"
    #: "I never proposed that update to the shared information."
    DENIES_UPDATE_ORIGIN = "denies-update-origin"
    #: "I never agreed to that update."
    DENIES_UPDATE_DECISION = "denies-update-decision"
    #: "That state was never an agreed state of the shared information."
    DENIES_AGREED_STATE = "denies-agreed-state"


#: Which token type refutes which denial, and who must have issued it.
_REFUTING_TOKEN: Dict[ClaimType, TokenType] = {
    ClaimType.DENIES_REQUEST_ORIGIN: TokenType.NRO_REQUEST,
    ClaimType.DENIES_REQUEST_RECEIPT: TokenType.NRR_REQUEST,
    ClaimType.DENIES_RESPONSE_ORIGIN: TokenType.NRO_RESPONSE,
    ClaimType.DENIES_RESPONSE_RECEIPT: TokenType.NRR_RESPONSE,
    ClaimType.DENIES_UPDATE_ORIGIN: TokenType.NRO_UPDATE,
    ClaimType.DENIES_UPDATE_DECISION: TokenType.NR_DECISION,
}


@dataclass(frozen=True)
class DisputeClaim:
    """A denial raised by ``denying_party`` about protocol run ``run_id``."""

    claim_type: ClaimType
    run_id: str
    denying_party: str
    object_id: Optional[str] = None
    disputed_payload: Any = None


@dataclass
class Verdict:
    """Outcome of adjudicating a claim."""

    claim: DisputeClaim
    upheld: bool                 # True = the denial stands (claimant wins)
    refuted: bool                # True = evidence refutes the denial
    reasoning: str = ""
    supporting_evidence: List[EvidenceToken] = field(default_factory=list)

    @property
    def decided_against_denier(self) -> bool:
        return self.refuted


def _refuting_types(claim: DisputeClaim) -> Dict[str, Optional[str]]:
    """Token types that can refute ``claim``, each with the issuer it must name.

    ``None`` accepts any issuer: an agreed state is proved by the proposer's
    ``NR_OUTCOME`` together with the denying party's own ``NR_DECISION``.
    """
    if claim.claim_type is ClaimType.DENIES_AGREED_STATE:
        return {
            TokenType.NR_OUTCOME.value: None,
            TokenType.NR_DECISION.value: claim.denying_party,
        }
    refuting_type = _REFUTING_TOKEN.get(claim.claim_type)
    if refuting_type is None:
        return {}
    return {refuting_type.value: claim.denying_party}


def _first_verified(
    tokens: List[EvidenceToken], verdicts: List[Optional[Exception]]
) -> Optional[EvidenceToken]:
    """The first token, in presentation order, whose verification found no fault."""
    return next(
        (token for token, error in zip(tokens, verdicts) if error is None), None
    )


class DisputeResolver:
    """Adjudicates claims by verifying the evidence presented against them."""

    def __init__(self, verifier: EvidenceVerifier) -> None:
        self._verifier = verifier

    # -- core adjudication ---------------------------------------------------------

    def adjudicate(
        self, claim: DisputeClaim, presented_evidence: List[EvidenceToken]
    ) -> Verdict:
        """Decide ``claim`` given the evidence presented by the counterparty.

        The denial is refuted if the counterparty presents a verifiable token
        of the refuting type, signed by the denying party, bound to the
        disputed run (and, when supplied, to the disputed payload).
        """
        if claim.claim_type is ClaimType.DENIES_AGREED_STATE:
            return self._adjudicate_agreed_state(claim, presented_evidence)
        refuting_type = _REFUTING_TOKEN.get(claim.claim_type)
        if refuting_type is None:
            raise DisputeError(f"cannot adjudicate claim type {claim.claim_type!r}")
        candidates = [
            token
            for token in presented_evidence
            if token.token_type == refuting_type.value
            and token.issuer == claim.denying_party
        ]
        verdicts = self._verifier.verify_all(
            (
                token,
                {
                    "expected_type": refuting_type,
                    "expected_run_id": claim.run_id,
                    "expected_issuer": claim.denying_party,
                    "expected_payload": claim.disputed_payload,
                },
            )
            for token in candidates
        )
        token = _first_verified(candidates, verdicts)
        if token is not None:
            return Verdict(
                claim=claim,
                upheld=False,
                refuted=True,
                reasoning=(
                    f"token {token.token_id} of type {token.token_type} signed by "
                    f"{token.issuer} for run {token.run_id} verifies; the denial is refuted"
                ),
                supporting_evidence=[token],
            )
        return Verdict(
            claim=claim,
            upheld=True,
            refuted=False,
            reasoning=(
                "no verifiable evidence signed by the denying party was presented; "
                "the denial stands"
            ),
        )

    def _adjudicate_agreed_state(
        self, claim: DisputeClaim, presented_evidence: List[EvidenceToken]
    ) -> Verdict:
        """Adjudicate "that state was never agreed".

        Refuted when an ``NR_OUTCOME`` token (agreement outcome) and at least
        one ``NR_DECISION`` token from the denying party verify for the run.
        """
        outcome_tokens = [
            token
            for token in presented_evidence
            if token.token_type == TokenType.NR_OUTCOME.value
        ]
        decision_tokens = [
            token
            for token in presented_evidence
            if token.token_type == TokenType.NR_DECISION.value
            and token.issuer == claim.denying_party
        ]
        checks = [
            (token, {"expected_run_id": claim.run_id}) for token in outcome_tokens
        ] + [
            (
                token,
                {
                    "expected_run_id": claim.run_id,
                    "expected_issuer": claim.denying_party,
                },
            )
            for token in decision_tokens
        ]
        verdicts = self._verifier.verify_all(checks)
        split = len(outcome_tokens)
        verified_outcome = _first_verified(outcome_tokens, verdicts[:split])
        verified_decision = _first_verified(decision_tokens, verdicts[split:])
        if verified_outcome is not None and verified_decision is not None:
            return Verdict(
                claim=claim,
                upheld=False,
                refuted=True,
                reasoning=(
                    "a verifiable agreement outcome and the denying party's own signed "
                    "decision were presented; the state was agreed"
                ),
                supporting_evidence=[verified_outcome, verified_decision],
            )
        return Verdict(
            claim=claim,
            upheld=True,
            refuted=False,
            reasoning="agreement evidence incomplete or unverifiable; the denial stands",
        )

    # -- convenience over evidence stores -----------------------------------------------

    def adjudicate_from_store(
        self, claim: DisputeClaim, store: EvidenceStore
    ) -> Verdict:
        """Adjudicate ``claim`` on the evidence the counterparty holds for its run.

        Only records that can bear on the claim are revived into tokens:
        those filed under a refuting token type whose stated issuer is the
        one the claim binds (:func:`_refuting_types`), in presentation order.
        That selection is a shortcut, never the check -- :meth:`adjudicate`
        filters the revived tokens again and puts each through
        ``require_valid``, so the verdict is the one presenting the whole run
        would get -- and it means a record that cannot decide the claim need
        not even be well-formed.  Nothing is kept between claims: reviving a
        claim's one or two candidates is cheaper than a memo of tokens and
        its resident memory.
        """
        wanted = _refuting_types(claim)
        tokens = [
            EvidenceToken.from_stored(record)
            for record in store.evidence_for_run(claim.run_id)
            if record.token_type in wanted
            and wanted[record.token_type] in (None, record.token.get("issuer"))
        ]
        return self.adjudicate(claim, tokens)
