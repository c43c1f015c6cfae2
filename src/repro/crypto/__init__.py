"""Cryptographic substrate for the non-repudiation middleware.

The paper (Section 3.5) requires: an unforgeable, verifiable signature scheme;
a secure one-way, collision-resistant hash; a secure pseudo-random sequence
generator; credential (certificate) management; and time-stamping.  This
package provides from-scratch implementations of all of them:

* :mod:`repro.crypto.hashing` -- SHA-256 based digests, hash chains, Merkle trees.
* :mod:`repro.crypto.rng` -- OS-backed default generator, seedable HMAC-DRBG, unique ids.
* :mod:`repro.crypto.rsa` -- RSA key generation (Miller-Rabin) and signatures.
* :mod:`repro.crypto.dsa` -- DSA signatures.
* :mod:`repro.crypto.hmac_scheme` -- symmetric HMAC "signature" scheme.
* :mod:`repro.crypto.forward_secure` -- hash-chain forward-secure signatures.
* :mod:`repro.crypto.keys` / :mod:`repro.crypto.signature` -- key objects and
  the scheme registry used by the rest of the library.
* :mod:`repro.crypto.certificates` -- certificate authority, chains, revocation.
* :mod:`repro.crypto.timestamp` -- time-stamping authority.
"""

from repro.crypto.hashing import HashChain, MerkleTree, secure_hash, secure_hash_hex
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.crypto.rng import SecureRandom, new_nonce, new_unique_id
from repro.crypto.signature import (
    Signature,
    SignatureScheme,
    Signer,
    Verifier,
    get_scheme,
    register_scheme,
)
from repro.crypto.certificates import (
    Certificate,
    CertificateAuthority,
    CertificateStore,
    RevocationList,
)
from repro.crypto.timestamp import TimestampAuthority, TimestampToken

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "CertificateStore",
    "HashChain",
    "KeyPair",
    "MerkleTree",
    "PrivateKey",
    "PublicKey",
    "RevocationList",
    "SecureRandom",
    "Signature",
    "SignatureScheme",
    "Signer",
    "TimestampAuthority",
    "TimestampToken",
    "Verifier",
    "get_scheme",
    "new_nonce",
    "new_unique_id",
    "register_scheme",
    "secure_hash",
    "secure_hash_hex",
]
