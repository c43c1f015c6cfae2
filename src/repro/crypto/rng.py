"""Secure pseudo-random generation and unique identifiers.

The paper requires "a secure pseudo-random sequence generator to generate
statistically random and unpredictable sequences of bits.  Random numbers are
used to generate unique identifiers and random authenticators during
non-repudiation protocols." (Section 3.5).

Every default draw -- :func:`new_unique_id`, :func:`new_nonce` and
:func:`default_rng`, which key generation uses -- comes from one
:class:`OSRandom`, the operating system's CSPRNG (``os.urandom``).  The
process holds no generator state, so a ``fork()``ed child never repeats its
parent's identifiers, nonces or keys.

:class:`SecureRandom` is an HMAC-DRBG (NIST SP 800-90A style) built on
SHA-256.  It runs only where a caller constructs one -- seeded, to obtain a
reproducible sequence (fault plans, tests), or passed explicitly as ``rng=``.
"""

from __future__ import annotations

import hmac
import hashlib
import os
import threading
from typing import Optional

_DIGEST = "sha256"
_DIGEST_SIZE = hashlib.new(_DIGEST).digest_size


class SecureRandom:
    """HMAC-DRBG pseudo-random generator.

    The generator maintains the usual (K, V) state and supports reseeding.
    It is thread-safe: concurrent callers each receive distinct output.
    """

    def __init__(self, seed: Optional[bytes] = None) -> None:
        if seed is None:
            seed = os.urandom(48)
        self._key = b"\x00" * _DIGEST_SIZE
        self._value = b"\x01" * _DIGEST_SIZE
        self._lock = threading.Lock()
        self._reseed_counter = 0
        self._update(seed)

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        return hmac.digest(key, data, _DIGEST)  # one-shot C path

    def _update(self, provided_data: Optional[bytes]) -> None:
        self._key = self._hmac(self._key, self._value + b"\x00" + (provided_data or b""))
        self._value = self._hmac(self._key, self._value)
        if provided_data:
            self._key = self._hmac(self._key, self._value + b"\x01" + provided_data)
            self._value = self._hmac(self._key, self._value)

    def reseed(self, entropy: bytes) -> None:
        """Mix additional entropy into the generator state."""
        with self._lock:
            self._update(entropy)
            self._reseed_counter = 0

    def random_bytes(self, length: int) -> bytes:
        """Return ``length`` pseudo-random bytes."""
        if length < 0:
            raise ValueError("length must be non-negative")
        with self._lock:
            output = bytearray()
            while len(output) < length:
                self._value = self._hmac(self._key, self._value)
                output.extend(self._value)
            self._update(None)
            self._reseed_counter += 1
            return bytes(output[:length])

    def random_int(self, bits: int) -> int:
        """Return a uniformly random integer with at most ``bits`` bits."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        nbytes = (bits + 7) // 8
        raw = self.random_bytes(nbytes)
        value = int.from_bytes(raw, "big")
        excess = nbytes * 8 - bits
        return value >> excess

    def random_int_below(self, upper: int) -> int:
        """Return a uniformly random integer in ``[0, upper)``."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        bits = upper.bit_length()
        while True:
            candidate = self.random_int(bits)
            if candidate < upper:
                return candidate

    def random_int_range(self, lower: int, upper: int) -> int:
        """Return a uniformly random integer in ``[lower, upper)``."""
        if upper <= lower:
            raise ValueError("upper must be greater than lower")
        return lower + self.random_int_below(upper - lower)

    def random_odd_int(self, bits: int) -> int:
        """Return a random odd integer with exactly ``bits`` bits set high."""
        if bits < 2:
            raise ValueError("bits must be at least 2")
        value = self.random_int(bits)
        value |= (1 << (bits - 1)) | 1
        return value

    def random_hex(self, length: int) -> str:
        """Return a random hex string of ``length`` characters."""
        nbytes = (length + 1) // 2
        return self.random_bytes(nbytes).hex()[:length]


class OSRandom(SecureRandom):
    """The operating system's CSPRNG behind the :class:`SecureRandom` API.

    Besides the constructor it overrides :meth:`random_bytes` and
    :meth:`reseed` only, and every other public method draws through
    :meth:`random_bytes`, so the DRBG state that :class:`SecureRandom` keeps
    is never created nor read here.
    """

    def __init__(self) -> None:
        pass

    def reseed(self, entropy: bytes) -> None:
        """No-op: there is no state to mix into; the OS pool reseeds itself."""

    def random_bytes(self, length: int) -> bytes:
        """Return ``length`` bytes from ``os.urandom`` (``ValueError`` if negative)."""
        return os.urandom(length)


_default_rng = OSRandom()


def default_rng() -> SecureRandom:
    """Return the process-wide default generator (the OS CSPRNG)."""
    return _default_rng


def new_nonce(length: int = 16) -> bytes:
    """Return a fresh random authenticator of ``length`` bytes."""
    return _default_rng.random_bytes(length)


def new_unique_id(prefix: str = "id") -> str:
    """Return a globally unique identifier string.

    Identifiers are used as protocol-run (request) identifiers to distinguish
    between protocol runs and to bind protocol steps to a run (Section 3.2).
    """
    return f"{prefix}-{_default_rng.random_hex(32)}"
