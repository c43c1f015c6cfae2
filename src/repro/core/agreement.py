"""The agreement rule: no party applies shared state it cannot prove, with
signed evidence, every other member agreed to.

:func:`agreement_proof` is that rule as one pure function;
:func:`decision_payload` builds the ``NR_DECISION`` body a responder signs
from the template the proof rebuilds it with, and :func:`proving_tokens`
picks, out of whatever a store holds for a run, the tokens a proof needs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import codec
from repro.core.evidence import EvidenceToken, EvidenceVerifier, TokenType, payload_digest
from repro.core.validators import ValidationDecision
from repro.crypto.hashing import secure_hash
from repro.errors import EvidenceVerificationError


def _text(value: Any) -> str:
    return codec.escape_str(value) if type(value) is str else codec.encode_text(value)


def _decision_template(
    object_id: Any, run_id: Any, accepted: bool, digest_hex: str
) -> Callable[[Any, Any, Any], str]:
    """``(reason, responder, validator) -> text`` of a run's decision payloads:
    ``codec.canonicalize`` of the dict (keys sorted), without walking a dict."""
    head = (
        f'{{"accepted":{"true" if accepted else "false"},"object_id":{_text(object_id)},'
        f'"proposal_digest":"{digest_hex}","reason":'
    )
    middle = f',"run_id":{_text(run_id)},"validator":'
    return lambda reason, responder, validator: (
        f'{head}{_text(reason)},"responder":{_text(responder)}{middle}{_text(validator)}}}'
    )


def decision_payload(
    object_id: str, run_id: str, responder: str, decision: ValidationDecision, digest: bytes
) -> codec.Encoded:
    """The canonical ``NR_DECISION`` payload ``responder`` signs for a proposal."""
    accepted, reason, validator = bool(decision.accepted), decision.reason, decision.validator
    text = _decision_template(object_id, run_id, accepted, digest.hex())
    return codec.Encoded(
        text(reason, responder, validator),
        source={"object_id": object_id, "run_id": run_id, "accepted": accepted,
                "reason": reason, "validator": validator, "responder": responder,
                "proposal_digest": digest.hex()},
    )


def agreement_proof(
    verifier: EvidenceVerifier,
    run_id: str,
    outcome: Any,
    nr_outcome: EvidenceToken,
    decision_tokens: Iterable[EvidenceToken],
    proposal_digest: bytes,
    members: Sequence[str],
    proposer: str,
    trusted: Optional[str] = None,
) -> Optional[str]:
    """Why ``outcome`` fails to prove unanimous agreement; ``None`` if it proves it.

    It does when ``proposer`` signed it as ``run_id``'s ``NR_OUTCOME``; it
    is agreed, names the proposal digested to ``proposal_digest`` and
    advances its base version by one; and for each member but the proposer
    its ``decisions`` map holds an accepting entry that the member's
    ``NR_DECISION`` for the run signs.  The caller already knows that
    ``trusted`` accepted (its own reservation): it needs only the accepting
    entry, and its token is neither looked up nor verified.
    """
    if outcome is None:
        return "no outcome payload"
    try:
        verifier.require_valid(
            nr_outcome, expected_type=TokenType.NR_OUTCOME, expected_run_id=run_id,
            expected_payload=outcome, expected_issuer=proposer,
        )
    except EvidenceVerificationError as error:
        return f"outcome evidence invalid: {error}"
    fields = codec.unwrap(outcome)
    if not isinstance(fields, dict) or fields.get("agreed") is not True:
        return "the outcome is not agreed"
    digest_hex = proposal_digest.hex()
    if fields.get("proposed_state_digest") != digest_hex:
        return "the outcome names another proposal"
    base, new = fields.get("base_version"), fields.get("new_version")
    if type(base) is not int or new != base + 1:
        return f"new version {new!r} does not follow base version {base!r}"
    decisions = fields.get("decisions")
    if not isinstance(decisions, dict):
        return "the outcome carries no decisions"
    tokens = {token.issuer: token for token in decision_tokens}
    text = _decision_template(fields.get("object_id"), run_id, True, digest_hex)
    for member in members:
        if member == proposer:
            continue
        entry, token = decisions.get(member), tokens.get(member)
        if not isinstance(entry, dict) or entry.get("accepted") is not True:
            return f"no accepting decision from {member}"
        if member == trusted:
            continue
        if token is None:
            return f"no decision evidence from {member}"
        payload = text(entry.get("reason"), member, entry.get("validator"))
        try:
            verifier.require_valid(
                token, expected_type=TokenType.NR_DECISION, expected_run_id=run_id,
                expected_payload=secure_hash(payload.encode("utf-8")), expected_issuer=member,
            )
        except EvidenceVerificationError as error:
            return f"decision evidence from {member} invalid: {error}"
    return None


def proving_tokens(run_id: str, outcome: Any, tokens: Iterable[Mapping[str, Any]]) -> Tuple[
    Optional[Mapping[str, Any]], List[Mapping[str, Any]]
]:
    """The tokens (stored dictionary forms) that prove ``outcome`` for ``run_id``.

    That is the proposer's ``NR_OUTCOME`` over exactly ``outcome`` and, for
    each other party in its ``decisions`` map, the ``NR_DECISION`` whose
    payload is that entry rebuilt through the proof's template -- one per
    issuer, so other tokens a store holds for the run (another party's
    outcome, a decision on something else) are never picked.  Signatures
    are left to the proof.  Returns ``(nr_outcome or None, decisions)``.
    """
    fields = codec.unwrap(outcome)
    decisions = fields.get("decisions") if isinstance(fields, dict) else None
    if not isinstance(decisions, dict):
        return None, []
    proposer = fields.get("proposer")
    text = _decision_template(
        fields.get("object_id"), run_id, True, str(fields.get("proposed_state_digest"))
    )
    wanted = {(TokenType.NR_OUTCOME.value, proposer): payload_digest(outcome).hex()}
    for member, entry in decisions.items():
        if member != proposer and isinstance(entry, dict):
            payload = text(entry.get("reason"), member, entry.get("validator"))
            wanted[TokenType.NR_DECISION.value, member] = secure_hash(payload.encode("utf-8")).hex()
    chosen: Dict[Tuple[Any, Any], Mapping[str, Any]] = {}
    for token in tokens:
        key = (token.get("token_type"), token.get("issuer"))
        if key in wanted and wanted[key] == token.get("payload_digest"):
            chosen.setdefault(key, token)
    nr_outcome = chosen.pop((TokenType.NR_OUTCOME.value, proposer), None)
    return nr_outcome, [chosen[key] for key in sorted(chosen)]
