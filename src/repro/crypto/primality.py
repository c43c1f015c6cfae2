"""Primality testing and prime generation.

A candidate is screened by one ``gcd`` with the product of the 95 primes up
to 499 (candidates up to 499 are looked up directly), then put through 32
Miller-Rabin rounds with random bases, each a one-shot ``mod_exp``.  Generated
primes have their top two bits set, so a product of two ``k``-bit primes
always has exactly ``2k`` bits and each factor is at least ``0.75 * 2**k``
-- above the ``sqrt(2) * 2**(k-1)`` floor of FIPS 186-4 B.3.1.  Used by the
RSA and DSA key generators.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.crypto.modexp import mod_exp
from repro.crypto.rng import SecureRandom, default_rng

# The small-prime screen run before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
    317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409,
    419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499,
]
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def is_probable_prime(candidate: int, rounds: int = 32, rng: Optional[SecureRandom] = None) -> bool:
    """Return ``True`` if ``candidate`` is probably prime.

    Screens by the small primes, then runs ``rounds`` iterations of
    Miller-Rabin with random bases.  The error probability is at most
    ``4**-rounds``.
    """
    if candidate <= _SMALL_PRIMES[-1]:
        return candidate in _SMALL_PRIME_SET
    if math.gcd(candidate, _PRIMORIAL) != 1:
        return False
    rng = rng or default_rng()
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        base = rng.random_int_range(2, candidate - 1)
        x = mod_exp(base, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: Optional[SecureRandom] = None) -> int:
    """Generate a random prime with exactly ``bits`` bits, the top two set."""
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    rng = rng or default_rng()
    fixed_bits = (3 << (bits - 2)) | 1
    while True:
        candidate = rng.random_int(bits) | fixed_bits
        if is_probable_prime(candidate, rng=rng):
            return candidate


def generate_prime_congruent(
    bits: int, modulus: int, residue: int, rng: Optional[SecureRandom] = None
) -> int:
    """Generate a ``bits``-bit prime ``p`` with ``p % modulus == residue``.

    Used by DSA parameter generation to find ``p`` such that ``q`` divides
    ``p - 1``.
    """
    rng = rng or default_rng()
    while True:
        candidate = rng.random_odd_int(bits)
        candidate += (residue - candidate) % modulus
        if candidate.bit_length() != bits or candidate % 2 == 0:
            continue
        if is_probable_prime(candidate, rng=rng):
            return candidate


def modular_inverse(value: int, modulus: int) -> int:
    """Return the inverse of ``value`` modulo ``modulus``.

    Raises :class:`ValueError` when the inverse does not exist.
    """
    try:
        return pow(value, -1, modulus)
    except ValueError:
        raise ValueError(f"{value} has no inverse modulo {modulus}") from None
