"""Non-repudiation evidence tokens.

"Non-repudiation tokens include a unique request identifier, to distinguish
between protocol runs and to bind protocol steps to a run, and a signature on
a secure hash of the evidence generated." (Section 3.2.)

An :class:`EvidenceToken` binds (token type, protocol run, step, issuer,
recipient, payload digest, timestamp) under the issuer's signature.  The
:class:`EvidenceBuilder` generates and signs tokens on behalf of one party's
trusted interceptor; the :class:`EvidenceVerifier` checks tokens received
from other parties against their certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import codec
from repro.observability.runtime import STATE as _OBS
from repro.clock import Clock, SystemClock
from repro.crypto.certificates import CertificateStore
from repro.crypto.hashing import secure_hash
from repro.crypto.keys import PublicKey
from repro.crypto.rng import new_unique_id
from repro.crypto.signature import Signature, Signer, get_scheme
from repro.crypto.timestamp import TimestampAuthority, TimestampToken, verify_timestamp
from repro.errors import EvidenceError, EvidenceVerificationError


class TokenType(Enum):
    """The kinds of evidence exchanged by the protocols.

    The invocation tokens follow Section 3.2; the sharing tokens follow the
    state-coordination requirements of Section 3.3; the TTP tokens support
    the inline-TTP and fair-exchange deployments.
    """

    NRO_REQUEST = "nro-request"            # non-repudiation of origin of request
    NRR_REQUEST = "nrr-request"            # non-repudiation of receipt of request
    NRO_RESPONSE = "nro-response"          # non-repudiation of origin of response
    NRR_RESPONSE = "nrr-response"          # non-repudiation of receipt of response
    NRO_UPDATE = "nro-update"              # origin of a proposed update to shared info
    NR_DECISION = "nr-decision"            # a member's validation decision on an update
    NR_OUTCOME = "nr-outcome"              # the collective decision on an update
    NR_MEMBERSHIP = "nr-membership"        # agreement to a membership change
    NRO_CATCH_UP = "nro-catch-up"          # origin of a member's request for missed versions
    TTP_RELAY = "ttp-relay"                # TTP's record of having relayed a message
    TTP_AFFIDAVIT = "ttp-affidavit"        # TTP-generated substitute evidence (resolve)
    TTP_ABORT = "ttp-abort"                # TTP-signed abort of a protocol run


@dataclass(frozen=True)
class EvidenceToken:
    """A signed, self-contained piece of non-repudiation evidence."""

    token_id: str
    token_type: str
    run_id: str
    step: int
    issuer: str
    recipient: str
    payload_digest: bytes
    issued_at: float
    details: Mapping[str, Any] = field(default_factory=dict)
    signature: Optional[Signature] = None
    timestamp_token: Optional[TimestampToken] = None

    # Tokens are frozen, so every canonical representation is computed once
    # and memoised on the instance (plain attribute caching in __dict__,
    # which bypasses the frozen-dataclass setattr guard).

    def _details_jsonable(self) -> Any:
        cached = self.__dict__.get("_details_json")
        if cached is None:
            cached = codec.to_jsonable(dict(self.details))
            self.__dict__["_details_json"] = cached
        return cached

    def body_bytes(self) -> bytes:
        """Canonical byte encoding of the signed portion of the token."""
        cached = self.__dict__.get("_body_bytes")
        if cached is None:
            body = {
                "token_id": self.token_id,
                "token_type": self.token_type,
                "run_id": self.run_id,
                "step": self.step,
                "issuer": self.issuer,
                "recipient": self.recipient,
                "payload_digest": self.payload_digest.hex(),
                "issued_at": self.issued_at,
                "details": self._details_jsonable(),
            }
            cached = json.dumps(body, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
            self.__dict__["_body_bytes"] = cached
        return cached

    def body_digest(self) -> bytes:
        """``secure_hash(body_bytes())`` -- the digest the signature covers.

        Hashed from this token's own body once per object, however often the
        token is verified; the signature carries no digest of its own, so
        verification always runs over this one.
        """
        cached = self.__dict__.get("_body_digest")
        if cached is None:
            cached = secure_hash(self.body_bytes())
            self.__dict__["_body_digest"] = cached
        return cached

    def _build_dict(self) -> Dict[str, Any]:
        """Dictionary form sharing the instance caches; internal use only."""
        payload: Dict[str, Any] = {
            "token_id": self.token_id,
            "token_type": self.token_type,
            "run_id": self.run_id,
            "step": self.step,
            "issuer": self.issuer,
            "recipient": self.recipient,
            "payload_digest": self.payload_digest.hex(),
            "issued_at": self.issued_at,
            # Raw, not _details_jsonable(): the canonical writer converts
            # exactly once, so a second pass would escape the already-built
            # tags (e.g. {"__bytes__": ...}) and break from_dict revival.
            "details": dict(self.details),
        }
        if self.signature is not None:
            payload["signature"] = self.signature.to_dict()
        if self.timestamp_token is not None:
            payload["timestamp_token"] = self.timestamp_token.to_dict()
        return payload

    def to_dict(self) -> Dict[str, Any]:
        # Parsed fresh from the cached canonical text: C-speed, and callers
        # may freely mutate the result without corrupting the caches that
        # back body_bytes()/data_encoded().
        return self.data_encoded().jsonable()

    def data_encoded(self) -> codec.Encoded:
        """Canonical encoding of :meth:`to_dict`, computed once per token."""
        encoded = self.__dict__.get("_data_encoded")
        if encoded is None:
            encoded = codec.Encoded(codec.encode_text(self._build_dict()))
            self.__dict__["_data_encoded"] = encoded
        return encoded

    def canonical_encoded(self) -> codec.Encoded:
        """Canonical object-tagged encoding, spliced into enclosing messages."""
        encoded = self.__dict__.get("_canonical_encoded")
        if encoded is None:
            encoded = codec.Encoded(
                '{"__object__":"%s","data":%s}'
                % (type(self).__name__, self.data_encoded().text)
            )
            self.__dict__["_canonical_encoded"] = encoded
        return encoded

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], revived: bool = False
    ) -> "EvidenceToken":
        """Rebuild a token from its dictionary form.

        ``revived=True`` marks input whose nested values already went
        through :func:`codec.from_jsonable` (wire frames are revived
        bottom-up, stored records by ``codec.decode`` -- see
        :meth:`from_stored`): ``details`` must not be walked a second time.
        """
        signature = payload.get("signature")
        timestamp_token = payload.get("timestamp_token")
        details = payload.get("details", {})
        return cls(
            token_id=payload["token_id"],
            token_type=payload["token_type"],
            run_id=payload["run_id"],
            step=payload["step"],
            issuer=payload["issuer"],
            recipient=payload["recipient"],
            payload_digest=bytes.fromhex(payload["payload_digest"]),
            issued_at=payload["issued_at"],
            details=details if revived else codec.from_jsonable(details),
            signature=Signature.from_dict(signature) if signature else None,
            timestamp_token=(
                TimestampToken.from_dict(timestamp_token) if timestamp_token else None
            ),
        )

    @classmethod
    def from_stored(cls, record: Any) -> "EvidenceToken":
        """Rebuild the token of an evidence-store record.

        The store splices the canonical text of a token object into its
        record, so ``codec.decode`` of the record has already revived
        ``details``; reviving them again would turn a plain dict that merely
        looks like a codec tag into what the tag stands for and break the
        signature.
        """
        return cls.from_dict(record.token, revived=True)


def payload_digest(payload: Any) -> bytes:
    """Digest of the agreed (canonical) representation of ``payload``.

    This is the "meaningful snapshot" requirement of Section 3.4: value types
    are resolved to their canonical encoded state before hashing.  Payloads
    that were already canonicalised (:class:`repro.codec.Encoded`) reuse
    their cached digest without re-encoding.
    """
    if isinstance(payload, codec.Encoded):
        return payload.digest
    return secure_hash(codec.encode(payload))


class EvidenceBuilder:
    """Generates signed evidence tokens on behalf of one party; a token's
    body is hashed once, and the signature is made over that digest."""

    def __init__(
        self,
        party: str,
        signer: Signer,
        clock: Optional[Clock] = None,
        timestamp_authority: Optional[TimestampAuthority] = None,
    ) -> None:
        self.party = party
        self._signer = signer
        self._clock = clock or SystemClock()
        self._tsa = timestamp_authority

    @property
    def key_id(self) -> str:
        return self._signer.key_id

    def build(
        self,
        token_type: TokenType,
        run_id: str,
        step: int,
        recipient: str,
        payload: Any,
        details: Optional[Mapping[str, Any]] = None,
    ) -> EvidenceToken:
        """Create and sign a token over ``payload`` (hashed canonically)."""
        if not run_id:
            raise EvidenceError("evidence token requires a run id")
        digest = payload if isinstance(payload, bytes) else payload_digest(payload)
        fields = dict(
            token_id=new_unique_id("tok"),
            token_type=token_type.value,
            run_id=run_id,
            step=step,
            issuer=self.party,
            recipient=recipient,
            payload_digest=digest,
            issued_at=self._clock.now(),
            details=dict(details or {}),
        )
        unsigned = EvidenceToken(**fields)
        body, body_digest = unsigned.body_bytes(), unsigned.body_digest()
        signature = self._signer.sign(body, body_digest)
        timestamp_token = None
        if self._tsa is not None:
            timestamp_token = self._tsa.issue(digest)
        signed = EvidenceToken(**fields, signature=signature, timestamp_token=timestamp_token)
        # The signature covers only the body, which is identical for the
        # signed copy -- seed its caches instead of re-encoding and
        # re-hashing (the digest is the one this party just signed).
        signed.__dict__["_body_bytes"] = body
        signed.__dict__["_body_digest"] = body_digest
        return signed


class EvidenceVerifier:
    """Verifies tokens received from other parties.

    Public keys are resolved through the certificate store (the credential
    management service of Section 3.5) or through explicitly pinned keys --
    the latter is how tests model out-of-band key agreement.
    """

    def __init__(
        self,
        certificate_store: Optional[CertificateStore] = None,
        pinned_keys: Optional[Mapping[str, PublicKey]] = None,
        tsa_key: Optional[PublicKey] = None,
    ) -> None:
        self._certificates = certificate_store
        self._pinned: Dict[str, PublicKey] = dict(pinned_keys or {})
        self._tsa_key = tsa_key

    def pin_key(self, party: str, key: PublicKey) -> None:
        """Associate ``party`` with ``key`` without going through certificates."""
        self._pinned[party] = key

    def key_for(self, party: str) -> Optional[PublicKey]:
        """Resolve the verification key for ``party``."""
        if party in self._pinned:
            return self._pinned[party]
        if self._certificates is not None:
            return self._certificates.public_key_for_subject(party)
        return None

    def verify(
        self,
        token: EvidenceToken,
        expected_type: Optional[TokenType] = None,
        expected_run_id: Optional[str] = None,
        expected_payload: Any = None,
        expected_issuer: Optional[str] = None,
    ) -> bool:
        """Verify a token's signature and, optionally, its binding fields."""
        try:
            self.require_valid(
                token,
                expected_type=expected_type,
                expected_run_id=expected_run_id,
                expected_payload=expected_payload,
                expected_issuer=expected_issuer,
            )
            return True
        except EvidenceVerificationError:
            return False

    def require_valid(
        self,
        token: EvidenceToken,
        expected_type: Optional[TokenType] = None,
        expected_run_id: Optional[str] = None,
        expected_payload: Any = None,
        expected_issuer: Optional[str] = None,
    ) -> None:
        """Raise :class:`EvidenceVerificationError` when verification fails."""
        if token.signature is None:
            raise EvidenceVerificationError("token carries no signature")
        if expected_type is not None and token.token_type != expected_type.value:
            raise EvidenceVerificationError(
                f"expected token type {expected_type.value!r}, got {token.token_type!r}"
            )
        if expected_run_id is not None and token.run_id != expected_run_id:
            raise EvidenceVerificationError(
                f"token belongs to run {token.run_id!r}, expected {expected_run_id!r}"
            )
        if expected_issuer is not None and token.issuer != expected_issuer:
            raise EvidenceVerificationError(
                f"token issued by {token.issuer!r}, expected {expected_issuer!r}"
            )
        if expected_payload is not None:
            digest = (
                expected_payload
                if isinstance(expected_payload, bytes)
                else payload_digest(expected_payload)
            )
            if digest != token.payload_digest:
                raise EvidenceVerificationError(
                    "token payload digest does not match the presented payload"
                )
        key = self.key_for(token.issuer)
        if key is None:
            raise EvidenceVerificationError(
                f"no verification key known for issuer {token.issuer!r}"
            )
        scheme = get_scheme(key.scheme)
        body, digest = token.body_bytes(), token.body_digest()
        observe = _OBS.observe_verify
        if observe is None:
            valid = scheme.verify(key, body, token.signature, message_digest=digest)
        else:
            started = perf_counter()
            valid = scheme.verify(key, body, token.signature, message_digest=digest)
            observe(perf_counter() - started)
        if not valid:
            raise EvidenceVerificationError(
                f"signature verification failed for token {token.token_id!r} "
                f"issued by {token.issuer!r}"
            )
        if token.timestamp_token is not None and self._tsa_key is not None:
            if not verify_timestamp(token.timestamp_token, self._tsa_key):
                raise EvidenceVerificationError(
                    f"timestamp on token {token.token_id!r} failed verification"
                )

    def verify_all(
        self, checks: Iterable[Tuple[EvidenceToken, Mapping[str, Any]]]
    ) -> List[Optional[EvidenceVerificationError]]:
        """Verify a set of tokens, one :meth:`require_valid` per entry, in order.

        ``checks`` yields ``(token, expectations)`` pairs where
        ``expectations`` holds :meth:`require_valid` keyword arguments
        (``expected_type``, ``expected_run_id``, ...).  Returns one entry per
        check, in order: ``None`` on success, the verification error
        otherwise -- an invalid token never masks the other verdicts.  Any
        other exception is an infrastructure failure and propagates: it is
        never misread as "token invalid".

        The checks run on the calling thread.  A set is a handful of tokens
        (two candidates per dispute claim, one forwarded decision per member)
        and a verification is tens of microseconds or a memo hit, so a hop to
        a worker pool costs more than the signatures it would overlap.
        """
        verdicts: List[Optional[EvidenceVerificationError]] = []
        for token, expectations in checks:
            try:
                self.require_valid(token, **expectations)
            except EvidenceVerificationError as error:
                verdicts.append(error)
            else:
                verdicts.append(None)
        return verdicts
