"""Unit tests for the encode-once evidence pipeline.

Exercises the caching layers added across codec, crypto, messages and
transport: the keyed :class:`~repro.codec.EncodingCache` and its invalidation
contract, per-instance encoding caches on tokens and protocol messages (and
that mutation never yields a stale digest), the signature-verification memo,
CRT signing equivalence, honest ``repr`` sizing in the network statistics,
and the batched delivery fan-out.
"""

import pytest

from repro import codec
from repro.core.evidence import EvidenceBuilder, EvidenceVerifier, TokenType, payload_digest
from repro.core.messages import B2BProtocolMessage
from repro.crypto.keys import PrivateKey
from repro.crypto.rsa import RSAScheme
from repro.crypto.signature import (
    Signer,
    clear_verification_cache,
    generate_keypair,
    get_scheme,
    verification_cache_stats,
)
from repro.errors import DeliveryError, UnknownEndpointError
from repro.transport.delivery import ReliableChannel, RetryPolicy
from repro.transport.network import (
    SIZING_CANONICAL,
    SIZING_REPR,
    Message,
    SimulatedNetwork,
)


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


class TestEncodingCache:
    def test_memoises_by_key(self):
        cache = codec.EncodingCache()
        first = cache.get_or_encode(("doc", 1), {"v": 1})
        again = cache.get_or_encode(("doc", 1), {"v": "ignored: key unchanged"})
        assert again is first
        assert cache.stats()["hits"] == 1

    def test_changed_key_never_serves_stale_digest(self):
        cache = codec.EncodingCache()
        state = {"balance": 100}
        old = cache.get_or_encode(("doc", 1), state)
        state["balance"] = 999  # mutation accompanied by a version bump
        new = cache.get_or_encode(("doc", 2), state)
        assert new.digest != old.digest
        assert new.digest == codec.digest_of({"balance": 999})

    def test_invalidate_forces_recomputation_after_in_place_mutation(self):
        cache = codec.EncodingCache()
        state = {"balance": 100}
        stale = cache.get_or_encode("doc", state)
        state["balance"] = 999  # mutated under the SAME key...
        cache.invalidate("doc")  # ...so the contract requires invalidation
        fresh = cache.get_or_encode("doc", state)
        assert fresh.digest != stale.digest
        assert fresh.digest == codec.digest_of(state)

    def test_lru_eviction_respects_maxsize(self):
        cache = codec.EncodingCache(maxsize=2)
        for version in range(5):
            cache.get_or_encode(("doc", version), {"v": version})
        assert len(cache) == 2
        assert cache.get(("doc", 0)) is None
        assert cache.get(("doc", 4)) is not None

    def test_encoded_snapshot_is_immune_to_source_mutation(self):
        payload = {"amount": 1}
        encoded = codec.canonicalize(payload)
        digest_before = encoded.digest
        payload["amount"] = 2
        # The snapshot keeps the canonical form taken at canonicalisation
        # time; a fresh canonicalisation sees the new value.
        assert encoded.digest == digest_before
        assert codec.canonicalize(payload).digest != digest_before


class TestTokenEncodingCaches:
    def test_body_bytes_and_data_encoded_are_stable_and_correct(self, builder):
        token = builder.build(
            token_type=TokenType.NRO_REQUEST,
            run_id="run-1",
            step=1,
            recipient="urn:test:bob",
            payload={"x": 1},
            details={"note": "hello"},
        )
        assert token.body_bytes() is token.body_bytes()
        assert token.data_encoded().data == codec.encode(token.to_dict())
        assert codec.encode(token) == token.canonical_encoded().data

    def test_payload_digest_reuses_canonical_digest(self, builder):
        payload = codec.canonicalize({"x": 1})
        token = builder.build(
            token_type=TokenType.NRO_REQUEST,
            run_id="run-1",
            step=1,
            recipient="urn:test:bob",
            payload=payload,
        )
        assert token.payload_digest == payload.digest
        assert payload_digest(payload) == payload_digest({"x": 1})


class TestMessageEncodingCache:
    def _message(self, builder, payload):
        token = builder.build(
            token_type=TokenType.NRO_REQUEST,
            run_id="run-1",
            step=1,
            recipient="urn:test:bob",
            payload=payload,
        )
        return B2BProtocolMessage(
            run_id="run-1",
            protocol="nr-invocation",
            step=1,
            sender="urn:test:alice",
            recipient="urn:test:bob",
            payload=payload,
            tokens=[token],
        )

    def test_encoded_size_is_cached(self, builder):
        message = self._message(builder, {"x": 1})
        assert message.data_encoded() is message.data_encoded()
        assert message.encoded_size() == codec.encoded_size(message.to_dict())

    def test_field_mutation_invalidates_cached_encoding(self, builder):
        message = self._message(builder, {"x": 1})
        before = message.data_encoded()
        message.recipient = "urn:test:carol"
        after = message.data_encoded()
        assert after is not before
        assert after.digest != before.digest
        assert message.encoded_size() == codec.encoded_size(message.to_dict())

    def test_spliced_payload_matches_plain_payload_encoding(self, builder):
        plain = self._message(builder, {"x": [1, 2, 3]})
        spliced = B2BProtocolMessage(
            run_id=plain.run_id,
            protocol=plain.protocol,
            step=plain.step,
            sender=plain.sender,
            recipient=plain.recipient,
            payload=codec.canonicalize({"x": [1, 2, 3]}),
            tokens=plain.tokens,
            message_id=plain.message_id,
        )
        assert spliced.data_encoded().data == plain.data_encoded().data


class TestVerificationMemo:
    def test_repeated_verification_hits_the_memo(self, builder, verifier):
        clear_verification_cache()
        token = builder.build(
            token_type=TokenType.NR_DECISION,
            run_id="run-1",
            step=2,
            recipient="urn:test:bob",
            payload={"accepted": True},
        )
        assert verifier.verify(token)
        before = verification_cache_stats()["hits"]
        for _ in range(3):
            assert verifier.verify(token)
        assert verification_cache_stats()["hits"] == before + 3

    def test_tampered_signature_fails_despite_memo(self, builder, verifier):
        token = builder.build(
            token_type=TokenType.NR_DECISION,
            run_id="run-1",
            step=2,
            recipient="urn:test:bob",
            payload={"accepted": True},
        )
        assert verifier.verify(token)
        import dataclasses

        forged_signature = dataclasses.replace(
            token.signature,
            value=token.signature.value[:-1]
            + bytes([token.signature.value[-1] ^ 0xFF]),
        )
        forged = dataclasses.replace(token, signature=forged_signature)
        assert not verifier.verify(forged)

    def test_repinned_key_is_not_served_a_stale_verdict(self, builder, keypair):
        token = builder.build(
            token_type=TokenType.NR_DECISION,
            run_id="run-1",
            step=2,
            recipient="urn:test:bob",
            payload={"accepted": True},
        )
        verifier = EvidenceVerifier()
        other = generate_keypair("rsa", bits=1024)
        verifier.pin_key("urn:test:alice", other.public)
        assert not verifier.verify(token)  # wrong key -> memoised as False
        # Re-pinning the correct key must verify: the memo binds the key id,
        # so the earlier negative verdict for the wrong key is not reused.
        verifier.pin_key("urn:test:alice", keypair.public)
        assert verifier.verify(token)


class TestSetEncodingOrder:
    def test_homogeneous_sets_keep_natural_order(self):
        # Seed compatibility: numeric sets sort numerically, not textually,
        # so digests of previously-encodable sets are unchanged.
        assert codec.encode({3, 10, 2}) == b'{"__set__":[2,3,10]}'
        assert codec.encode({"b", "a"}) == b'{"__set__":["a","b"]}'

    def test_heterogeneous_sets_fall_back_to_canonical_order(self):
        # Regression: this raised TypeError in the seed.
        encoded = codec.encode({1, "a"})
        assert codec.decode(encoded) == {1, "a"}
        assert encoded == codec.encode({"a", 1})

    def test_bytes_sets_are_encodable(self):
        # Also a TypeError in the seed (jsonable bytes are dicts).
        value = {b"\x01", b"\x02"}
        assert codec.decode(codec.encode(value)) == value


class TestTokenDictIsolation:
    def test_mutating_to_dict_result_does_not_corrupt_caches(self, builder, verifier):
        token = builder.build(
            token_type=TokenType.NRO_REQUEST,
            run_id="run-1",
            step=1,
            recipient="urn:test:bob",
            payload={"x": 1},
            details={"note": "original"},
        )
        body_before = token.body_bytes()
        exported = token.to_dict()
        exported["details"]["note"] = "tampered"
        exported["signature"]["value"] = "00"
        assert token.body_bytes() == body_before
        assert token.to_dict()["details"]["note"] == "original"
        assert verifier.verify(token)


class TestVerificationMemoKeyBinding:
    def test_spoofed_key_id_cannot_poison_the_memo(self, keypair):
        from repro.crypto.hashing import secure_hash
        from repro.crypto.keys import PublicKey
        from repro.crypto.signature import Signature

        scheme = get_scheme("rsa")
        attacker = generate_keypair("rsa", bits=1024)
        message = b"the agreed payload"
        forged = Signature(
            scheme="rsa",
            key_id=keypair.public.key_id,  # declares the victim's key id
            value=scheme.sign_digest(attacker.private, secure_hash(message)),
        )
        # The attacker presents their own key material under the victim's
        # declared key_id; verifying memoises a True verdict for it.
        spoofed_key = PublicKey(
            scheme="rsa", params=attacker.public.params, key_id=keypair.public.key_id
        )
        clear_verification_cache()
        assert scheme.verify(spoofed_key, message, forged)
        # The victim's real key must still reject: the memo binds the
        # recomputed key-material fingerprint, not the declared key_id.
        assert not scheme.verify(keypair.public, message, forged)


class TestCrtSigning:
    def test_crt_signature_matches_direct_exponentiation(self, keypair):
        # One scheme per path: a scheme caches one exponentiation per (n, d),
        # so a shared one would serve the stripped key the CRT kernels.
        scheme = RSAScheme()
        digest = b"\xab" * 32
        with_crt = scheme.sign_digest(keypair.private, digest)
        stripped = PrivateKey(
            scheme="rsa",
            params={
                name: value
                for name, value in keypair.private.params.items()
                if name not in ("p", "q")
            },
            key_id=keypair.private.key_id,
        )
        without_crt = RSAScheme().sign_digest(stripped, digest)
        assert with_crt == without_crt
        assert scheme.verify_digest(keypair.public, digest, with_crt)


class TestNetworkSizing:
    def test_canonical_payload_is_marked_canonical(self):
        message = Message("a", "b", "op", {"x": 1})
        size = message.encoded_size()
        assert message.sizing == SIZING_CANONICAL
        assert message.encoded_size() == size  # cached

    def test_repr_fallback_is_marked_and_counted(self):
        network = SimulatedNetwork()
        network.register("urn:dest", lambda message: "ok")
        network.send("urn:src", "urn:dest", "op", {"x": 1})
        assert network.statistics.messages_sized_by_repr == 0
        network.send("urn:src", "urn:dest", "op", object())  # unencodable
        assert network.statistics.messages_sized_by_repr == 1
        delta = network.statistics.delta(network.statistics.snapshot())
        assert delta.messages_sized_by_repr == 0


class TestBatchedDelivery:
    def _network(self):
        network = SimulatedNetwork()
        network.register("urn:a", lambda message: f"a:{message.payload}")
        network.register("urn:b", lambda message: f"b:{message.payload}")
        return network

    def test_batch_results_preserve_order_and_replies(self):
        network = self._network()
        results = network.send_batch(
            "urn:src", [("urn:a", "op", 1), ("urn:b", "op", 2)]
        )
        assert [outcome.result for outcome in results] == ["a:1", "b:2"]
        assert all(outcome.delivered for outcome in results)

    def test_batch_statistics_match_sequential_sends(self):
        batched = self._network()
        batched.send_batch("urn:src", [("urn:a", "op", {"v": 1}), ("urn:b", "op", {"v": 2})])
        sequential = self._network()
        sequential.send("urn:src", "urn:a", "op", {"v": 1})
        sequential.send("urn:src", "urn:b", "op", {"v": 2})
        assert batched.statistics.snapshot() == sequential.statistics.snapshot()

    def test_one_failure_does_not_mask_other_deliveries(self):
        network = self._network()
        network.set_online("urn:a", False)
        results = network.send_batch(
            "urn:src",
            [("urn:a", "op", 1), ("urn:missing", "op", 2), ("urn:b", "op", 3)],
        )
        assert isinstance(results[0].error, DeliveryError)
        assert isinstance(results[1].error, UnknownEndpointError)
        assert results[2].result == "b:3"
        assert network.statistics.messages_dropped == 2
        assert network.statistics.messages_delivered == 1

    def test_reliable_channel_batch_retries_until_delivery(self):
        network = self._network()
        network.set_online("urn:a", False)
        attempts = {"n": 0}
        original = network._admit_locked

        def flaky_admit(message):
            if message.destination == "urn:a":
                attempts["n"] += 1
                if attempts["n"] >= 3:
                    network.set_online("urn:a", True)
            return original(message)

        network._admit_locked = flaky_admit
        channel = ReliableChannel(
            network, "urn:src", RetryPolicy(max_attempts=5, backoff_seconds=0.0)
        )
        results = channel.send_batch([("urn:a", "op", 1), ("urn:b", "op", 2)])
        assert results[0].result == "a:1"
        assert results[1].result == "b:2"
        assert channel.retries_made >= 1
