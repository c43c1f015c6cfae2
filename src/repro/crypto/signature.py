"""Signature scheme abstraction and registry.

The trusted-interceptor assumptions (Section 3.1) require signatures that are
"verifiable and unforgeable".  The middleware does not prescribe a scheme, so
this module defines a small abstraction -- :class:`SignatureScheme` -- under
which RSA, DSA, HMAC and forward-secure schemes are registered.  Evidence
tokens carry the scheme name and the signing key id so verification can be
performed by any party holding the corresponding public key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.crypto.hashing import secure_hash
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.errors import SignatureError
from repro.observability.runtime import STATE as _OBS


@dataclass(frozen=True)
class Signature:
    """A detached signature over a message digest.

    Attributes:
        scheme: name of the signature scheme used.
        key_id: identifier of the signing key.
        value: the raw signature bytes.

    The signed digest is not carried: a verifier always recomputes it from
    the message it holds, so a copy would only be compared, never trusted.
    """

    scheme: str
    key_id: str
    value: bytes

    def to_dict(self) -> Dict[str, Any]:
        return {"scheme": self.scheme, "key_id": self.key_id, "value": self.value.hex()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Signature":
        """Revive a signature; a ``"digest"`` key of the older layout is ignored."""
        return cls(
            scheme=payload["scheme"],
            key_id=payload["key_id"],
            value=bytes.fromhex(payload["value"]),
        )


class SignatureScheme:
    """Interface implemented by every signature scheme."""

    #: registry name of the scheme (e.g. ``"rsa"``)
    name: str = ""

    def generate_keypair(self, **options: Any) -> KeyPair:
        """Generate a fresh key pair for this scheme."""
        raise NotImplementedError

    def sign_digest(self, private_key: PrivateKey, digest: bytes) -> bytes:
        """Sign a message digest and return the raw signature bytes."""
        raise NotImplementedError

    def verify_digest(
        self, public_key: PublicKey, digest: bytes, signature: bytes
    ) -> bool:
        """Return ``True`` if ``signature`` is a valid signature on ``digest``."""
        raise NotImplementedError

    # Convenience message-level helpers -------------------------------------

    def sign(
        self,
        private_key: PrivateKey,
        message: bytes,
        message_digest: Optional[bytes] = None,
    ) -> Signature:
        """Hash ``message`` (or take its ``message_digest``) and sign the digest."""
        if private_key.scheme != self.name:
            raise SignatureError(
                f"key scheme {private_key.scheme!r} does not match {self.name!r}"
            )
        digest = secure_hash(message) if message_digest is None else message_digest
        value = self.sign_digest(private_key, digest)
        return Signature(scheme=self.name, key_id=private_key.key_id, value=value)

    def verify(
        self,
        public_key: PublicKey,
        message: bytes,
        signature: Signature,
        message_digest: Optional[bytes] = None,
    ) -> bool:
        """Verify a :class:`Signature` object against ``message``.

        ``message_digest`` is ``secure_hash(message)`` when the caller has
        already computed it from ``message`` itself (an evidence token hashes
        its body once per object); it is never a received value.  The
        signature is checked against that digest, so altering ``message``
        fails verification.

        Results are memoised process-wide: re-verifying a token that was
        redistributed (e.g. ``NR_DECISION`` evidence forwarded with an
        outcome) costs one cache lookup instead of a modular exponentiation.
        The memo key binds (scheme, key-material fingerprint, digest,
        signature bytes), so a different key -- even re-pinned under the same
        party name or carrying a spoofed ``key_id`` -- or any tampering with
        the message or signature bytes misses the cache.
        """
        if signature.scheme != self.name:
            return False
        if public_key.scheme != self.name:
            return False
        if public_key.key_id != signature.key_id:
            return False
        digest = secure_hash(message) if message_digest is None else message_digest
        # Key on the recomputed material fingerprint, not the declared
        # key_id: deserialised keys carry whatever key_id the payload
        # claimed, and a memo entry poisoned through a spoofed id would
        # otherwise make forged signatures verify as the victim's.
        key = (self.name, public_key.material_fingerprint(), digest, signature.value)
        cached = _VERIFICATION_CACHE.get(key)
        if cached is None:
            cached = self.verify_digest(public_key, digest, signature.value)
            _VERIFICATION_CACHE.put(key, cached)
        return cached


class _VerificationCache:
    """Bounded LRU memo of signature-verification verdicts.

    Every scheme's ``verify_digest`` is a deterministic function of
    (public key, digest, signature bytes), so both positive and negative
    verdicts are safe to cache for the lifetime of the process.
    """

    def __init__(self, maxsize: int = 8192) -> None:
        self._maxsize = maxsize
        self._entries: "OrderedDict[Tuple, bool]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple) -> Optional[bool]:
        with self._lock:
            verdict = self._entries.get(key)
            if verdict is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return verdict

    def put(self, key: Tuple, verdict: bool) -> None:
        with self._lock:
            self._entries[key] = verdict
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


_VERIFICATION_CACHE = _VerificationCache()


def clear_verification_cache() -> None:
    """Drop all memoised verification verdicts (mainly for tests)."""
    _VERIFICATION_CACHE.clear()


def verification_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the process-wide verification memo."""
    return _VERIFICATION_CACHE.stats()


_REGISTRY: Dict[str, SignatureScheme] = {}


def register_scheme(scheme: SignatureScheme, replace: bool = False) -> None:
    """Register a scheme instance under its :attr:`SignatureScheme.name`."""
    if not scheme.name:
        raise SignatureError("signature scheme has no name")
    if scheme.name in _REGISTRY and not replace:
        raise SignatureError(f"scheme {scheme.name!r} already registered")
    _REGISTRY[scheme.name] = scheme


def get_scheme(name: str) -> SignatureScheme:
    """Look up a registered scheme, loading the built-ins lazily."""
    _ensure_builtin_schemes()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SignatureError(f"unknown signature scheme {name!r}") from None


def available_schemes() -> Dict[str, SignatureScheme]:
    """Return a copy of the registry (name -> scheme instance)."""
    _ensure_builtin_schemes()
    return dict(_REGISTRY)


def _ensure_builtin_schemes() -> None:
    if _REGISTRY:
        return
    # Imported lazily to avoid circular imports at package load time.
    from repro.crypto.rsa import RSAScheme
    from repro.crypto.dsa import DSAScheme
    from repro.crypto.hmac_scheme import HMACScheme
    from repro.crypto.forward_secure import ForwardSecureScheme

    for scheme in (RSAScheme(), DSAScheme(), HMACScheme(), ForwardSecureScheme()):
        if scheme.name not in _REGISTRY:
            _REGISTRY[scheme.name] = scheme


class Signer:
    """Binds a private key to its scheme for convenient signing."""

    def __init__(self, private_key: PrivateKey) -> None:
        self._private_key = private_key
        self._scheme = get_scheme(private_key.scheme)

    @property
    def key_id(self) -> str:
        return self._private_key.key_id

    @property
    def scheme_name(self) -> str:
        return self._private_key.scheme

    def sign(self, message: bytes, message_digest: Optional[bytes] = None) -> Signature:
        """Sign ``message`` (hash-then-sign; see :meth:`SignatureScheme.sign`)."""
        observe = _OBS.observe_sign
        if observe is None:
            return self._scheme.sign(self._private_key, message, message_digest)
        started = perf_counter()
        signature = self._scheme.sign(self._private_key, message, message_digest)
        observe(perf_counter() - started)
        return signature


class Verifier:
    """Binds a public key to its scheme for convenient verification."""

    def __init__(self, public_key: PublicKey) -> None:
        self._public_key = public_key
        self._scheme = get_scheme(public_key.scheme)

    @property
    def key_id(self) -> str:
        return self._public_key.key_id

    @property
    def public_key(self) -> PublicKey:
        return self._public_key

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Return ``True`` if ``signature`` is valid for ``message``."""
        observe = _OBS.observe_verify
        if observe is None:
            return self._scheme.verify(self._public_key, message, signature)
        started = perf_counter()
        valid = self._scheme.verify(self._public_key, message, signature)
        observe(perf_counter() - started)
        return valid


def generate_keypair(scheme: str = "rsa", **options: Any) -> KeyPair:
    """Generate a key pair using the named scheme (default RSA)."""
    return get_scheme(scheme).generate_keypair(**options)


def sign_message(private_key: PrivateKey, message: bytes) -> Signature:
    """Module-level helper: sign ``message`` with ``private_key``."""
    return get_scheme(private_key.scheme).sign(private_key, message)


def verify_message(
    public_key: PublicKey, message: bytes, signature: Optional[Signature]
) -> bool:
    """Module-level helper: verify ``signature`` over ``message``."""
    if signature is None:
        return False
    return get_scheme(public_key.scheme).verify(public_key, message, signature)
