"""Signatures written in the older layout, which carried the signed digest, still read.

A signature is ``(scheme, key_id, value)``: the verifier recomputes the
digest from the body it holds.  Stores and peers that still write
``signature.digest`` must keep working -- the key is ignored on revival --
for evidence tokens, their timestamp tokens and certificates, whether read
back from a ``sqlite:`` store or received in a wire frame, and dispute
resolution over such a store must reach the verdicts it reaches today.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    ClaimType,
    DisputeClaim,
    DisputeResolver,
    DomainConfig,
    DurabilityConfig,
    StorageProfile,
    TrustDomain,
)
from repro.core.evidence import EvidenceToken
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import secure_hash
from repro.crypto.signature import clear_verification_cache
from repro.crypto.timestamp import TimestampToken, verify_timestamp
from repro.persistence.evidence_store import EvidenceStore
from repro.persistence.sqlite_backend import SQLiteBackend
from repro.transport.wire.wirecodec import decode_body, encode_body

URIS = ["urn:org:l0", "urn:org:l1", "urn:org:l2"]
PROPOSER, AUDITOR, OTHER = URIS
OBJECT_ID = "legacy-doc"


def with_digest(token: dict) -> dict:
    """``token`` (plain JSON form) as the older layout wrote it."""
    token["signature"]["digest"] = secure_hash(EvidenceToken.from_dict(token).body_bytes()).hex()
    stamp = token.get("timestamp_token")
    if stamp:
        stamp["signature"]["digest"] = secure_hash(
            TimestampToken.from_dict(stamp).body_bytes()
        ).hex()
    return token


@pytest.fixture()
def domain(tmp_path):
    storage = f"sqlite:{tmp_path / 'kv.db'}"
    domain = TrustDomain.create(
        URIS,
        config=DomainConfig(use_timestamping=True, durability=DurabilityConfig(storage=storage)),
    )
    domain.share_object(OBJECT_ID, {"n": 0})
    outcome = domain.organisation(PROPOSER).propose_update(OBJECT_ID, {"n": 1})
    assert outcome.agreed
    domain.run_id, domain.storage, domain.path = outcome.run_id, storage, tmp_path / "kv.db"
    return domain


def cold_store(domain):
    backend = StorageProfile.parse(domain.storage).backend_for(AUDITOR, "evidence")
    return EvidenceStore(owner=AUDITOR, backend=backend)


def verdicts(domain):
    clear_verification_cache()
    resolver = DisputeResolver(domain.organisation(AUDITOR).evidence_verifier)
    claims = [
        DisputeClaim(ClaimType.DENIES_UPDATE_ORIGIN, domain.run_id, PROPOSER, OBJECT_ID),
        DisputeClaim(ClaimType.DENIES_AGREED_STATE, domain.run_id, OTHER, OBJECT_ID),
        DisputeClaim(ClaimType.DENIES_AGREED_STATE, "no-such-run", OTHER, OBJECT_ID),
    ]
    return [
        (verdict.refuted, verdict.upheld, verdict.reasoning,
         [token.token_id for token in verdict.supporting_evidence])
        for verdict in (resolver.adjudicate_from_store(claim, cold_store(domain))
                        for claim in claims)
    ]


def test_a_store_written_in_the_older_layout_revives_verifies_and_adjudicates(domain):
    today = verdicts(domain)
    assert [refuted for refuted, *_ in today] == [True, True, False]

    with SQLiteBackend(str(domain.path)) as backend:
        rows = backend.scan(f"evidence:{AUDITOR}:")
        assert rows
        rewritten = []
        for key, raw in rows:
            record = json.loads(raw.decode("utf-8"))
            assert "digest" not in record["token"]["signature"]
            record["token"] = with_digest(record["token"])
            rewritten.append(
                (key, json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8"))
            )
        backend.put_many(rewritten)

    verifier = domain.organisation(AUDITOR).evidence_verifier
    records = cold_store(domain).evidence_for_run(domain.run_id)
    assert len(records) == len(rows)
    for record in records:
        assert "digest" in record.token["signature"]
        token = EvidenceToken.from_stored(record)
        assert token.timestamp_token is not None
        clear_verification_cache()
        verifier.require_valid(token)
        assert verify_timestamp(token.timestamp_token, domain.timestamp_authority.public_key)
    assert verdicts(domain) == today


def test_a_wire_frame_in_the_older_layout_revives_and_verifies(domain):
    organisation = domain.organisation(AUDITOR)
    (record, *_) = organisation.evidence_for_run(domain.run_id)
    token = EvidenceToken.from_stored(record)
    certificate = organisation.certificate.to_dict()
    certificate["signature"]["digest"] = secure_hash(organisation.certificate.body_bytes()).hex()
    # The frame a peer still writing the older layout sends.
    envelope = json.loads(encode_body({"token": token, "certificate": certificate}))
    envelope["token"]["data"] = with_digest(envelope["token"]["data"])
    frame = json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Three signatures, and the digest the timestamp token stamps.
    assert frame.count(b'"digest"') == 4

    received = decode_body(frame)
    revived = received["token"]
    assert isinstance(revived, EvidenceToken)
    assert revived == token and revived.signature == token.signature
    clear_verification_cache()
    organisation.evidence_verifier.require_valid(revived)
    assert verify_timestamp(revived.timestamp_token, domain.timestamp_authority.public_key)
    cert = Certificate.from_dict(received["certificate"])
    assert cert == organisation.certificate
    assert organisation.certificate_store.verify_certificate(cert)
