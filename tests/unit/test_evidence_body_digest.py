"""An evidence token hashes its signed body once per object.

``EvidenceToken.body_digest`` is ``secure_hash(body_bytes())``, cached on the
token; the builder signs that digest and seeds the cache with it, and the
verifier hands it to ``SignatureScheme.verify`` instead of rehashing the
body on every verification.  A signature carries no digest of its own, so
verification always runs over the token's own body.  These tests pin that,
and count the hashes one agreed update costs.
"""

import dataclasses
import sys

import pytest

from repro import TrustDomain
from repro.core.config import DomainConfig
from repro.core.evidence import EvidenceBuilder, EvidenceToken, EvidenceVerifier, TokenType
from repro.crypto import hashing
from repro.crypto.signature import (
    SignatureScheme,
    Signer,
    clear_verification_cache,
    generate_keypair,
    get_scheme,
)
from repro.persistence.evidence_store import EvidenceStore
from repro.transport.wire.wirecodec import decode_body, encode_body


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair("rsa", bits=1024)


@pytest.fixture()
def builder(keypair):
    return EvidenceBuilder(party="urn:test:alice", signer=Signer(keypair.private))


@pytest.fixture()
def verifier(keypair):
    verifier = EvidenceVerifier()
    verifier.pin_key("urn:test:alice", keypair.public)
    return verifier


@pytest.fixture()
def hash_calls(monkeypatch):
    """Count ``secure_hash`` calls through every ``repro`` binding of it,
    those made inside ``SignatureScheme.verify``, and the sign and verify
    calls themselves."""
    calls = {"all": 0, "in_verify": 0, "sign": 0, "verify": 0}
    real = hashing.secure_hash
    inside_verify = []

    def counting(*args, **kwargs):
        calls["all"] += 1
        if inside_verify:
            calls["in_verify"] += 1
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counting)

    verify = SignatureScheme.verify
    sign = SignatureScheme.sign

    def tracked_verify(self, *args, **kwargs):
        calls["verify"] += 1
        inside_verify.append(True)
        try:
            return verify(self, *args, **kwargs)
        finally:
            inside_verify.pop()

    def tracked_sign(self, *args, **kwargs):
        calls["sign"] += 1
        return sign(self, *args, **kwargs)

    monkeypatch.setattr(SignatureScheme, "verify", tracked_verify)
    monkeypatch.setattr(SignatureScheme, "sign", tracked_sign)
    return calls


def _token(builder, run_id="run-1"):
    return builder.build(
        token_type=TokenType.NR_DECISION,
        run_id=run_id,
        step=2,
        recipient="urn:test:bob",
        payload={"accepted": True},
    )


class TestOneHashPerToken:
    def test_built_token_is_signed_over_its_body_digest(self, builder, keypair, hash_calls):
        before = hash_calls["all"]
        token = _token(builder)
        # The payload digest and the body digest; signing hashes nothing more.
        assert hash_calls["all"] == before + 2
        assert token.body_digest() == hashing.secure_hash(token.body_bytes())
        scheme = get_scheme(keypair.public.scheme)
        assert scheme.verify_digest(keypair.public, token.body_digest(), token.signature.value)
        assert set(token.to_dict()["signature"]) == {"scheme", "key_id", "value"}

    def test_built_token_verifies_without_hashing(self, builder, verifier, hash_calls):
        token = _token(builder)
        clear_verification_cache()
        before = hash_calls["all"]
        for _ in range(3):
            assert verifier.verify(token)
        assert hash_calls["all"] == before

    def test_token_revived_from_a_wire_frame_hashes_its_body_once(
        self, builder, verifier, hash_calls
    ):
        frame = encode_body({"token": _token(builder)})
        revived = decode_body(frame)["token"]
        assert isinstance(revived, EvidenceToken)
        clear_verification_cache()
        before = hash_calls["all"]
        for _ in range(4):
            assert verifier.verify(revived)
        assert hash_calls["all"] == before + 1
        assert hash_calls["in_verify"] == 0

    def test_token_revived_from_a_store_hashes_its_body_once(
        self, builder, verifier, hash_calls
    ):
        store = EvidenceStore("urn:test:bob")
        store.store("run-1", TokenType.NR_DECISION.value, _token(builder))
        (record,) = store.evidence_for_run("run-1")
        revived = EvidenceToken.from_stored(record)
        clear_verification_cache()
        before = hash_calls["all"]
        for _ in range(4):
            assert verifier.verify(revived, expected_type=TokenType.NR_DECISION)
        assert hash_calls["all"] == before + 1
        assert hash_calls["in_verify"] == 0


class TestTheSignatureCoversTheBody:
    def test_altered_body_under_the_original_signature_fails(self, builder, verifier):
        token = _token(builder)
        assert verifier.verify(token)
        payload = token.to_dict()
        payload["recipient"] = "urn:test:mallory"
        assert not verifier.verify(EvidenceToken.from_dict(payload))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("details", {"note": "added"}),
            ("payload_digest", "00" * 32),
            ("run_id", "run-2"),
            ("issued_at", 0.0),
        ],
    )
    def test_any_altered_body_field_fails(self, builder, verifier, field, value):
        payload = _token(builder).to_dict()
        payload[field] = value
        assert not verifier.verify(EvidenceToken.from_dict(payload))

    def test_a_digest_in_the_older_layout_is_ignored(self, builder, verifier):
        token = _token(builder)
        payload = token.to_dict()
        payload["signature"]["digest"] = hashing.secure_hash(b"something else").hex()
        revived = EvidenceToken.from_dict(payload)
        assert revived.signature == token.signature
        assert verifier.verify(revived)

    def test_a_digest_matching_an_altered_body_does_not_lend_it_the_signature(
        self, builder, verifier
    ):
        token = _token(builder)
        altered = dataclasses.replace(token, recipient="urn:test:mallory")
        # The forger presents, in the older layout, the digest of the altered
        # body but can only reuse the signature value made over the original.
        payload = altered.to_dict()
        payload["signature"]["digest"] = hashing.secure_hash(altered.body_bytes()).hex()
        assert not verifier.verify(EvidenceToken.from_dict(payload))


class TestHashesPerUpdate:
    def test_three_party_rsa_update_hashes_each_signed_body_once(self, hash_calls):
        domain = TrustDomain.create(["urn:a", "urn:b", "urn:c"], config=DomainConfig())
        domain.share_object("obj", {"n": 0})
        proposer = domain.organisation("urn:a")
        for version in range(1, 4):
            before = dict(hash_calls)
            assert proposer.propose_update("obj", {"n": version}).agreed
            delta = {name: hash_calls[name] - before[name] for name in hash_calls}
            # 4 signatures (NRO_update, two decisions, the outcome), each
            # hashing its body once, plus 1 audit-chain link (the proposer's
            # update-coordinated), 4 payload digests and 3 state digests; the
            # 8 verifications of the round add none.  The agreement proof adds
            # (n-1)(n-2) = 2: each responder rebuilds the other responder's
            # decision payload from the signed outcome, and verifies only that
            # decision (its own acceptance is its reservation).
            assert delta == {"all": 14, "in_verify": 0, "sign": 4, "verify": 8}
