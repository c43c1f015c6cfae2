"""From-scratch RSA signature scheme.

Key generation uses Miller-Rabin prime generation; signing follows the
hash-then-pad-then-exponentiate structure of PKCS#1 v1.5 (a deterministic
padding of the digest with a scheme identifier, then modular exponentiation
with the private exponent).

Each key's exponentiations are prepared once (:func:`repro.crypto.modexp.
prepare_mod_exp`) and reused for every signature and verification: the two
CRT halves of a private key run on OpenSSL's constant-time kernel, the
public exponent on its variable-time one.  Only those halves are
constant-time -- the padding, the reduction of the padded digest and the
Garner recombination are Python integer arithmetic, which is not.  The
implementation targets correctness and auditability; it is the "perfect
cryptography" substrate assumed by the paper, not a hardened production
library.  Padding is deterministic, so a signature's bytes depend on key and
digest only, never on which path computed it.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.crypto.modexp import Kernel, prepare_mod_exp
from repro.crypto.primality import generate_prime, modular_inverse
from repro.crypto.rng import SecureRandom, default_rng
from repro.errors import SignatureError
from repro.crypto.signature import SignatureScheme

#: Default modulus size.  1024 bits keeps key generation fast enough for
#: tests and benchmarks while exercising exactly the same code path as a
#: production-size modulus.
DEFAULT_MODULUS_BITS = 1024

#: Public exponent, the conventional F4.
PUBLIC_EXPONENT = 65537

# DigestInfo-style prefix identifying the digest algorithm inside the padding.
_DIGEST_PREFIX = b"repro-rsa-sha256:"

# Keys whose prepared kernels one scheme instance keeps (per cache).
_MAX_CACHED_KEYS = 1024


def _pad_digest(digest: bytes, modulus_bytes: int) -> int:
    """Apply deterministic type-1 style padding to ``digest``.

    Layout: ``0x00 0x01 FF..FF 0x00 prefix digest`` -- identical in spirit to
    EMSA-PKCS1-v1_5.
    """
    payload = _DIGEST_PREFIX + digest
    padding_length = modulus_bytes - len(payload) - 3
    if padding_length < 8:
        raise SignatureError("RSA modulus too small for digest padding")
    encoded = b"\x00\x01" + b"\xff" * padding_length + b"\x00" + payload
    return int.from_bytes(encoded, "big")


class RSAScheme(SignatureScheme):
    """RSA signatures with deterministic PKCS#1-v1.5-style padding."""

    name = "rsa"

    def generate_keypair(
        self,
        bits: int = DEFAULT_MODULUS_BITS,
        rng: Optional[SecureRandom] = None,
        **options: Any,
    ) -> KeyPair:
        """Generate an RSA key pair with a ``bits``-bit modulus."""
        if bits < 512:
            raise SignatureError("RSA modulus must be at least 512 bits")
        rng = rng or default_rng()
        half = bits // 2
        while True:
            p = generate_prime(half, rng=rng)
            q = generate_prime(bits - half, rng=rng)
            if p == q:
                continue
            n = p * q
            if n.bit_length() != bits:
                continue
            phi = (p - 1) * (q - 1)
            if phi % PUBLIC_EXPONENT == 0:
                continue
            d = modular_inverse(PUBLIC_EXPONENT, phi)
            break
        public = PublicKey(scheme=self.name, params={"n": n, "e": PUBLIC_EXPONENT})
        private = PrivateKey(
            scheme=self.name,
            params={"n": n, "e": PUBLIC_EXPONENT, "d": d, "p": p, "q": q},
            key_id=public.key_id,
        )
        return KeyPair(private=private, public=public)

    def __init__(self) -> None:
        # Prepared exponentiations, keyed by the key material they compute
        # with -- (n, d) for signing, (n, e) for verification -- and never by
        # the declared key_id, which deserialisation accepts verbatim (the
        # rule of ``PublicKey.material_fingerprint``).
        self._private_kernels: Dict[Tuple[int, int], Kernel] = {}
        self._public_kernels: Dict[Tuple[int, int], Kernel] = {}

    def sign_digest(self, private_key: PrivateKey, digest: bytes) -> bytes:
        params = private_key.params
        n = params["n"]
        modulus_bytes = (n.bit_length() + 7) // 8
        message_int = _pad_digest(digest, modulus_bytes)
        if message_int >= n:
            raise SignatureError("padded digest exceeds modulus")
        key = (n, params["d"])
        exponentiate = self._private_kernels.get(key)
        if exponentiate is None:
            exponentiate = _cached(
                self._private_kernels, key, _private_exponentiation(params)
            )
        return exponentiate(message_int).to_bytes(modulus_bytes, "big")

    def verify_digest(
        self, public_key: PublicKey, digest: bytes, signature: bytes
    ) -> bool:
        n = public_key.params["n"]
        e = public_key.params["e"]
        modulus_bytes = (n.bit_length() + 7) // 8
        if len(signature) != modulus_bytes:
            return False
        signature_int = int.from_bytes(signature, "big")
        if signature_int >= n:
            return False
        key = (n, e)
        kernel = self._public_kernels.get(key)
        if kernel is None:
            kernel = _cached(
                self._public_kernels, key, prepare_mod_exp(e, n, secret=False)
            )
        recovered = kernel(signature_int)
        try:
            expected = _pad_digest(digest, modulus_bytes)
        except SignatureError:
            return False
        return recovered == expected


def _cached(
    cache: Dict[Tuple[int, int], Kernel], key: Tuple[int, int], kernel: Kernel
) -> Kernel:
    """Remember ``kernel`` under ``key``; a full cache starts over."""
    if len(cache) >= _MAX_CACHED_KEYS:
        cache.clear()
    cache[key] = kernel
    return kernel


def _private_exponentiation(params: Mapping[str, Any]) -> Kernel:
    """``m -> m ** d % n`` for one private key, with its kernels prepared.

    With the primes known this is Garner recombination over the two
    half-size constant-time kernels -- a value identical to the direct
    exponentiation at roughly a quarter of the cost.
    """
    n, d = params["n"], params["d"]
    p, q = params.get("p"), params.get("q")
    if not p or not q:
        return prepare_mod_exp(d, n, secret=True)
    half_p = prepare_mod_exp(d % (p - 1), p, secret=True)
    half_q = prepare_mod_exp(d % (q - 1), q, secret=True)
    q_inverse = modular_inverse(q, p)

    def exponentiate(message_int: int) -> int:
        m1 = half_p(message_int % p)
        m2 = half_q(message_int % q)
        h = ((m1 - m2) * q_inverse) % p
        return (m2 + h * q) % n

    return exponentiate
