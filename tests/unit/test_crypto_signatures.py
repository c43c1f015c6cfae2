"""Unit tests for the signature schemes and the scheme registry."""

import gc
import random
import sys
import threading

import pytest

from repro.crypto import modexp
from repro.crypto.dsa import DSAScheme, generate_domain_parameters
from repro.crypto.forward_secure import (
    ForwardSecureScheme,
    _cached_context,
    current_period,
    disable_period_precompute,
    enable_period_precompute,
    evolve_key,
    period_precompute_stats,
)
from repro.crypto.hashing import secure_hash
from repro.crypto.hmac_scheme import HMACScheme
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.crypto.modexp import prepare_mod_exp
from repro.crypto.primality import generate_prime, is_probable_prime, modular_inverse
from repro.crypto.rsa import RSAScheme
from repro.crypto.signature import (
    Signature,
    Signer,
    Verifier,
    available_schemes,
    generate_keypair,
    get_scheme,
    sign_message,
    verify_message,
)
from repro.errors import KeyError_, SignatureError


class TestPrimality:
    def test_small_primes_recognised(self):
        for prime in (2, 3, 5, 7, 11, 97, 499):
            assert is_probable_prime(prime)

    def test_small_composites_rejected(self):
        for composite in (0, 1, 4, 9, 100, 561, 41041):  # includes Carmichael numbers
            assert not is_probable_prime(composite)

    def test_generated_prime_has_requested_size(self):
        prime = generate_prime(64)
        assert prime.bit_length() == 64
        assert is_probable_prime(prime)

    def test_generate_prime_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            generate_prime(4)

    def test_modular_inverse(self):
        assert (modular_inverse(3, 11) * 3) % 11 == 1

    def test_modular_inverse_missing(self):
        with pytest.raises(ValueError):
            modular_inverse(6, 9)


class TestRSA:
    def test_sign_and_verify(self, rsa_keypair):
        scheme = RSAScheme()
        signature = scheme.sign(rsa_keypair.private, b"message")
        assert scheme.verify(rsa_keypair.public, b"message", signature)

    def test_verification_fails_for_modified_message(self, rsa_keypair):
        scheme = RSAScheme()
        signature = scheme.sign(rsa_keypair.private, b"message")
        assert not scheme.verify(rsa_keypair.public, b"other message", signature)

    def test_verification_fails_with_other_key(self, rsa_keypair, second_rsa_keypair):
        scheme = RSAScheme()
        signature = scheme.sign(rsa_keypair.private, b"message")
        assert not scheme.verify(second_rsa_keypair.public, b"message", signature)

    def test_verification_fails_for_corrupted_signature(self, rsa_keypair):
        scheme = RSAScheme()
        signature = scheme.sign(rsa_keypair.private, b"message")
        corrupted = Signature(
            scheme=signature.scheme,
            key_id=signature.key_id,
            value=bytes([signature.value[0] ^ 0xFF]) + signature.value[1:],
        )
        assert not scheme.verify(rsa_keypair.public, b"message", corrupted)

    def test_key_pair_halves_share_key_id(self, rsa_keypair):
        assert rsa_keypair.private.key_id == rsa_keypair.public.key_id

    def test_minimum_modulus_enforced(self):
        with pytest.raises(SignatureError):
            RSAScheme().generate_keypair(bits=128)

    def test_small_keys_still_roundtrip(self):
        keypair = RSAScheme().generate_keypair(bits=512)
        scheme = RSAScheme()
        signature = scheme.sign(keypair.private, b"small key message")
        assert scheme.verify(keypair.public, b"small key message", signature)


# A fixed 1024-bit key and its signatures as computed before signing moved
# onto prepared kernels: padding is deterministic, so the bytes must never
# change whatever computes the exponentiation.
_GOLDEN_P = int(
    "91fabafad894960a9f20ef9726aff7afea30285f0bd84d5d867c887b10617c65"
    "591359bd8b9b1920e644186edab9d6574b1e2b9119f07282316b4d7f95f2a843",
    16,
)
_GOLDEN_Q = int(
    "f5b8a6246e4d7fe5a8ae7280263d96914094ca14568c66cbf609a138565dad26"
    "404408a95e4d807d158fcc2b424d632cabd4b297f3cfa8b9cda3824e0a689ac7",
    16,
)
_GOLDEN_SIGNATURES = {
    b"\x00" * 32: (
        "76d366b74e344503a9c2d695f7105eb3fe591d79525199ccacdea2a705bcdfb4"
        "ef4075c7a1654584a67401b3a2c6576226ec8b1625e0b64a1778f915485337cb"
        "8561b9b9c3d3ded5abd49fc3bba74b6d11aaa59cfe6d1619a6c9d144bb0ee447"
        "6e5a95876f1b001a6efa27ff9a49d4e7db4609c921681d9150084cb499feb9e9"
    ),
    b"\xff" * 32: (
        "2f38da4930cb0852bad746d72ceaa76897dac6cfc6ad38f71d728e9e42e123fe"
        "4ebccf45ef075e8ac4de2bbeea50c6022415313eb6b3dea95a320f1386433e0d"
        "2e6259e3df535c421265ef944c69a85fcc3f5fad779fc4c4b9e9003c94bf7b5e"
        "4a4bd73dc0d407c69da316108b5069bd0f46d8a8ea8ddcfe50d366eaf4cea85d"
    ),
    bytes(range(32)): (
        "6142fa511e2d7aca9a33a18217c208dd2d16d343f92f15b084e0a97f97b406cc"
        "516e5c15bc954131e10506aa557378e7a17696ea5d9c496cbd753a8ef874234e"
        "f1691b21acbcdc29d6eb60f8f465bcff0a87e4525da018f3efeabc88762e1dab"
        "10989294e596abebd7973c6d59fcabc0b6d74898b0a9b6bf44dfe00f68ec6d4e"
    ),
}


def _golden_keypair() -> KeyPair:
    n = _GOLDEN_P * _GOLDEN_Q
    d = modular_inverse(65537, (_GOLDEN_P - 1) * (_GOLDEN_Q - 1))
    public = PublicKey(scheme="rsa", params={"n": n, "e": 65537})
    private = PrivateKey(
        scheme="rsa",
        params={"n": n, "e": 65537, "d": d, "p": _GOLDEN_P, "q": _GOLDEN_Q},
        key_id=public.key_id,
    )
    return KeyPair(private=private, public=public)


def _signatures(scheme, private_key):
    return {digest: scheme.sign_digest(private_key, digest) for digest in _GOLDEN_SIGNATURES}


requires_openssl = pytest.mark.skipif(
    modexp.backend_name() != "openssl", reason="libcrypto binding unavailable"
)


class TestPreparedKernels:
    @pytest.mark.parametrize("secret", [False, True])
    def test_kernel_matches_pow_on_odd_moduli(self, secret):
        rng = random.Random(7)
        for bits in (2, 3, 5, 17, 64, 127, 512, 1024, 2048):
            modulus = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            exponents = [0, 1, 2, 65537, rng.getrandbits(min(bits, 256))]
            bases = [0, 1, modulus - 1, modulus, modulus + 1, 3 * modulus + 5, -5]
            bases.append(rng.getrandbits(2 * bits))
            for exponent in exponents:
                kernel = prepare_mod_exp(exponent, modulus, secret=secret)
                for base in bases:
                    assert kernel(base) == pow(base, exponent, modulus), (bits, exponent)

    def test_even_and_degenerate_moduli_take_the_pow_path(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("OpenSSL kernel prepared for an unsupported modulus")

        monkeypatch.setattr(modexp, "_OPENSSL_PREPARE", refuse)
        for modulus in (1, 2, 10, 2**64, 2**1023 * 3, -7):
            for secret in (False, True):
                kernel = prepare_mod_exp(65537, modulus, secret=secret)
                for base in (0, 5, 2**80 + 1):
                    assert kernel(base) == pow(base, 65537, modulus)
        assert prepare_mod_exp(-1, 7, secret=False)(3) == pow(3, -1, 7)

    def test_signatures_equal_the_pre_kernel_golden_vectors(self):
        keypair = _golden_keypair()
        scheme = RSAScheme()
        for digest, expected in _GOLDEN_SIGNATURES.items():
            signature = scheme.sign_digest(keypair.private, digest)
            assert signature.hex() == expected
            assert scheme.verify_digest(keypair.public, digest, signature)

    def test_signatures_byte_identical_with_the_binding_disabled(self, monkeypatch):
        keypair = _golden_keypair()
        accelerated = _signatures(RSAScheme(), keypair.private)
        monkeypatch.setattr(modexp, "_OPENSSL_PREPARE", None)
        fallback = RSAScheme()
        assert _signatures(fallback, keypair.private) == accelerated
        for digest, signature in accelerated.items():
            assert fallback.verify_digest(keypair.public, digest, signature)
        stripped = PrivateKey(
            scheme="rsa",
            params={
                name: value
                for name, value in keypair.private.params.items()
                if name not in ("p", "q")
            },
            key_id=keypair.private.key_id,
        )
        assert _signatures(RSAScheme(), stripped) == accelerated

    def test_threads_sharing_kernels_agree_with_one_thread(self, rsa_keypair):
        golden = _golden_keypair()
        keys = [rsa_keypair, golden]
        digests = [secure_hash(b"stress-%d" % i) for i in range(24)]
        reference_scheme = RSAScheme()
        expected = [
            [reference_scheme.sign_digest(key.private, digest) for digest in digests]
            for key in keys
        ]
        shared = RSAScheme()
        results = {}
        errors = []

        def work(worker):
            try:
                signed = [
                    [shared.sign_digest(key.private, digest) for digest in digests]
                    for key in keys
                ]
                verified = all(
                    shared.verify_digest(key.public, digest, signature)
                    for key, row in zip(keys, signed)
                    for digest, signature in zip(digests, row)
                )
                results[worker] = (signed, verified)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,), daemon=True) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8
        for signed, verified in results.values():
            assert signed == expected
            assert verified

    @requires_openssl
    def test_dropping_the_caches_frees_the_kernels(self, monkeypatch, rsa_keypair):
        released = []
        release = modexp._release

        def spy(frees):
            released.append(len(frees))
            release(frees)

        monkeypatch.setattr(modexp, "_release", spy)
        scheme = RSAScheme()
        digest = secure_hash(b"finalizer")
        signature = scheme.sign_digest(rsa_keypair.private, digest)
        assert scheme.verify_digest(rsa_keypair.public, digest, signature)
        scheme.sign_digest(rsa_keypair.private, digest)
        assert released == []
        del scheme
        gc.collect()
        # Two CRT halves and one public kernel, three OpenSSL objects each.
        assert released == [3, 3, 3]


class TestKeyMaterialCaches:
    def test_keys_sharing_a_key_id_sign_with_their_own_material(
        self, rsa_keypair, second_rsa_keypair
    ):
        first = rsa_keypair
        declared = first.private.key_id
        # Another key's material carrying the first key's declared id, as
        # ``from_dict`` accepts it.
        impostor_private = PrivateKey.from_dict(
            {**second_rsa_keypair.private.to_dict(), "key_id": declared}
        )
        impostor_public = PublicKey.from_dict(
            {**second_rsa_keypair.public.to_dict(), "key_id": declared}
        )
        scheme = RSAScheme()
        for index in range(3):
            digest = secure_hash(b"interleaved-%d" % index)
            own = scheme.sign_digest(first.private, digest)
            other = scheme.sign_digest(impostor_private, digest)
            assert own != other
            assert scheme.verify_digest(first.public, digest, own)
            assert not scheme.verify_digest(first.public, digest, other)
            assert scheme.verify_digest(impostor_public, digest, other)
            assert not scheme.verify_digest(impostor_public, digest, own)


class TestDSA:
    @pytest.fixture(scope="class")
    def dsa_keypair(self):
        return DSAScheme().generate_keypair(p_bits=512, q_bits=160)

    def test_sign_and_verify(self, dsa_keypair):
        scheme = DSAScheme()
        signature = scheme.sign(dsa_keypair.private, b"message")
        assert scheme.verify(dsa_keypair.public, b"message", signature)

    def test_verification_fails_for_modified_message(self, dsa_keypair):
        scheme = DSAScheme()
        signature = scheme.sign(dsa_keypair.private, b"message")
        assert not scheme.verify(dsa_keypair.public, b"tampered", signature)

    def test_domain_parameters_are_cached(self):
        first = generate_domain_parameters(512, 160)
        second = generate_domain_parameters(512, 160)
        assert first == second

    def test_domain_parameter_structure(self):
        p, q, g = generate_domain_parameters(512, 160)
        assert (p - 1) % q == 0
        assert pow(g, q, p) == 1
        assert g != 1

    def test_signature_is_deterministic_per_message(self, dsa_keypair):
        scheme = DSAScheme()
        sig_a = scheme.sign_digest(dsa_keypair.private, b"d" * 32)
        sig_b = scheme.sign_digest(dsa_keypair.private, b"d" * 32)
        assert sig_a == sig_b

    def test_malformed_signature_rejected(self, dsa_keypair):
        scheme = DSAScheme()
        assert not scheme.verify_digest(dsa_keypair.public, b"d" * 32, b"short")


class TestHMACScheme:
    def test_sign_and_verify(self):
        scheme = HMACScheme()
        keypair = scheme.generate_keypair()
        signature = scheme.sign(keypair.private, b"message")
        assert scheme.verify(keypair.public, b"message", signature)

    def test_wrong_key_rejected(self):
        scheme = HMACScheme()
        keypair = scheme.generate_keypair()
        other = scheme.generate_keypair()
        signature = scheme.sign(keypair.private, b"message")
        # A different key pair has a different key id, so verification fails.
        assert not scheme.verify(other.public, b"message", signature)

    def test_tampered_message_rejected(self):
        scheme = HMACScheme()
        keypair = scheme.generate_keypair()
        signature = scheme.sign(keypair.private, b"message")
        assert not scheme.verify(keypair.public, b"other", signature)


class TestForwardSecure:
    @pytest.fixture(scope="class")
    def fs_keypair(self):
        return ForwardSecureScheme().generate_keypair(periods=4)

    def test_sign_and_verify_in_initial_period(self, fs_keypair):
        scheme = ForwardSecureScheme()
        signature = scheme.sign(fs_keypair.private, b"period-0 message")
        assert scheme.verify(fs_keypair.public, b"period-0 message", signature)

    def test_signatures_remain_valid_after_evolution(self, fs_keypair):
        scheme = ForwardSecureScheme()
        signature = scheme.sign(fs_keypair.private, b"early evidence")
        evolved = evolve_key(fs_keypair.private)
        later = scheme.sign(evolved, b"later evidence")
        assert scheme.verify(fs_keypair.public, b"early evidence", signature)
        assert scheme.verify(fs_keypair.public, b"later evidence", later)

    def test_evolution_advances_period(self, fs_keypair):
        evolved = evolve_key(fs_keypair.private)
        assert current_period(evolved) == current_period(fs_keypair.private) + 1

    def test_evolved_key_cannot_sign_for_past_period(self, fs_keypair):
        scheme = ForwardSecureScheme()
        evolved = evolve_key(fs_keypair.private)
        early = scheme.sign(fs_keypair.private, b"x")
        late = scheme.sign(evolved, b"x")
        import json

        assert json.loads(early.value)["period"] != json.loads(late.value)["period"]

    def test_exhausted_key_refuses_to_sign(self):
        scheme = ForwardSecureScheme()
        keypair = scheme.generate_keypair(periods=1)
        evolved = evolve_key(keypair.private)
        with pytest.raises(SignatureError):
            scheme.sign(evolved, b"too late")

    def test_requires_at_least_one_period(self):
        with pytest.raises(SignatureError):
            ForwardSecureScheme().generate_keypair(periods=0)

    def test_evolve_requires_forward_secure_key(self, rsa_keypair):
        with pytest.raises(SignatureError):
            evolve_key(rsa_keypair.private)

    def test_garbage_signature_rejected(self, fs_keypair):
        scheme = ForwardSecureScheme()
        assert not scheme.verify_digest(fs_keypair.public, b"d" * 32, b"not json")


class TestForwardSecurePrecompute:
    """Offline/online split of the message-independent per-period work."""

    @pytest.fixture
    def precompute(self):
        enable_period_precompute()
        yield
        disable_period_precompute()

    def test_signature_bytes_identical_to_uncached_path(self):
        scheme = ForwardSecureScheme()
        keypair = scheme.generate_keypair(periods=4)
        digest = b"\x05" * 20
        baseline = scheme.sign_digest(keypair.private, digest)
        enable_period_precompute()
        try:
            pooled = scheme.sign_digest(keypair.private, digest)
            again = scheme.sign_digest(keypair.private, digest)  # cache hit
        finally:
            disable_period_precompute()
        # The split only relocates work: envelope, proof and the (RFC 6979
        # deterministic) inner DSA signature are bit-identical.
        assert pooled == baseline
        assert again == baseline
        assert scheme.verify_digest(keypair.public, digest, pooled)

    def test_cache_hits_after_first_signature(self, precompute):
        scheme = ForwardSecureScheme()
        keypair = scheme.generate_keypair(periods=4)
        before = period_precompute_stats()
        for _ in range(3):
            scheme.sign_digest(keypair.private, b"\x07" * 20)
        after = period_precompute_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] >= before["hits"] + 2

    def test_evolve_evicts_cached_secret_and_stages_next_period(self, precompute):
        scheme = ForwardSecureScheme()
        keypair = scheme.generate_keypair(periods=4)
        digest = b"\x09" * 20
        scheme.sign_digest(keypair.private, digest)  # populate period 0
        root = keypair.private.params["root"]
        before = period_precompute_stats()
        evolved = evolve_key(keypair.private)
        # The evolved-away period's context (which held its secret) is gone.
        assert _cached_context(root, 0) is None
        assert period_precompute_stats()["evicted"] == before["evicted"] + 1
        # The next period still signs correctly (staged or rebuilt on miss).
        signature = scheme.sign_digest(evolved, digest)
        assert scheme.verify_digest(keypair.public, digest, signature)

    def test_exhausted_and_erased_periods_still_refuse(self, precompute):
        scheme = ForwardSecureScheme()
        keypair = scheme.generate_keypair(periods=1)
        evolved = evolve_key(keypair.private)
        with pytest.raises(SignatureError):
            scheme.sign(evolved, b"too late")


class TestRegistryAndHelpers:
    def test_builtin_schemes_registered(self):
        names = set(available_schemes())
        assert {"rsa", "dsa", "hmac", "forward-secure"} <= names

    def test_get_unknown_scheme_raises(self):
        with pytest.raises(SignatureError):
            get_scheme("post-quantum-magic")

    def test_generate_keypair_helper(self):
        keypair = generate_keypair("hmac")
        assert keypair.scheme == "hmac"

    def test_sign_and_verify_helpers(self, rsa_keypair):
        signature = sign_message(rsa_keypair.private, b"helper message")
        assert verify_message(rsa_keypair.public, b"helper message", signature)

    def test_verify_helper_handles_missing_signature(self, rsa_keypair):
        assert not verify_message(rsa_keypair.public, b"helper message", None)

    def test_signer_and_verifier_objects(self, rsa_keypair):
        signature = Signer(rsa_keypair.private).sign(b"object api")
        assert Verifier(rsa_keypair.public).verify(b"object api", signature)

    def test_signature_dict_roundtrip(self, rsa_keypair):
        signature = sign_message(rsa_keypair.private, b"roundtrip")
        restored = Signature.from_dict(signature.to_dict())
        assert restored == signature
        assert verify_message(rsa_keypair.public, b"roundtrip", restored)

    def test_scheme_mismatch_between_key_and_scheme(self, rsa_keypair):
        with pytest.raises(SignatureError):
            DSAScheme().sign(rsa_keypair.private, b"x")

    def test_signature_with_wrong_scheme_label_rejected(self, rsa_keypair):
        signature = sign_message(rsa_keypair.private, b"x")
        forged = Signature(scheme="dsa", key_id=signature.key_id, value=signature.value)
        assert not verify_message(rsa_keypair.public, b"x", forged)


class TestKeyObjects:
    def test_public_key_dict_roundtrip(self, rsa_keypair):
        restored = PublicKey.from_dict(rsa_keypair.public.to_dict())
        assert restored.key_id == rsa_keypair.public.key_id
        assert restored.params["n"] == rsa_keypair.public.params["n"]

    def test_private_key_dict_roundtrip(self, rsa_keypair):
        restored = PrivateKey.from_dict(rsa_keypair.private.to_dict())
        assert restored.key_id == rsa_keypair.private.key_id

    def test_fingerprint_is_stable(self, rsa_keypair):
        clone = PublicKey(scheme="rsa", params=dict(rsa_keypair.public.params))
        assert clone.key_id == rsa_keypair.public.key_id

    def test_mismatched_keypair_rejected(self, rsa_keypair, second_rsa_keypair):
        with pytest.raises(KeyError_):
            KeyPair(private=rsa_keypair.private, public=second_rsa_keypair.public)

    def test_unsupported_param_type_rejected(self):
        with pytest.raises(KeyError_):
            PublicKey(scheme="rsa", params={"n": 3.14})
