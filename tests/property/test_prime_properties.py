"""Prime testing and RSA key generation against independent references.

``is_probable_prime`` screens with one ``gcd`` against the small-prime
primorial before its Miller-Rabin rounds; these tests hold it to exact trial division wherever trial division is affordable,
and to a plain-``pow`` transcription of the trial-division-then-Miller-Rabin
loop on 512-bit inputs.
"""

import math
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import rsa as rsa_module
from repro.crypto.primality import _SMALL_PRIMES, generate_prime, is_probable_prime
from repro.crypto.rng import SecureRandom
from repro.crypto.rsa import PUBLIC_EXPONENT, RSAScheme

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_CARMICHAEL = [
    int(token)
    for line in (Path(__file__).parent / "data" / "carmichael_below_1e10.txt").read_text().splitlines()
    if not line.startswith("#")
    for token in line.split()
]

# Published counts of Carmichael numbers below 10**3 .. 10**10 (Pinch).
_CARMICHAEL_COUNTS = {3: 1, 4: 7, 5: 16, 6: 43, 7: 105, 8: 255, 9: 646, 10: 1547}

# 512-bit primes: the two largest below 2**512 and the smallest above 2**511.
_PRIMES_512 = [2**512 - 569, 2**512 - 629, 2**511 + 111]

# Strong pseudoprimes to every prime base up to 23 and up to 37.
_STRONG_PSEUDOPRIMES = [
    149491 * 747451 * 34233211,
    399165290221 * 798330580441,
]


def _trial_division(n: int) -> bool:
    """Exact primality by trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % q for q in range(3, math.isqrt(n) + 1, 2))


def _reference_is_prime(n: int, rounds: int = 32) -> bool:
    """Trial division by the small primes, then Miller-Rabin on ``pow``."""
    if n < 2:
        return False
    for prime in _SMALL_PRIMES:
        if n == prime:
            return True
        if n % prime == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = random.Random(n)
    for _ in range(rounds):
        x = pow(bases.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_carmichael(n: int) -> bool:
    """Korselt's criterion: squarefree, three or more primes, p - 1 | n - 1."""
    remaining, factors, q = n, 0, 3
    while q * q <= remaining:
        if remaining % q == 0:
            remaining //= q
            if remaining % q == 0 or (n - 1) % (q - 1):
                return False
            factors += 1
        q += 2
    if remaining > 1:
        if (n - 1) % (remaining - 1):
            return False
        factors += 1
    return n % 2 == 1 and factors >= 3


class TestIsProbablePrime:
    def test_agrees_with_trial_division_below_20000(self):
        for n in range(-2, 20_000):
            assert is_probable_prime(n) == _trial_division(n), n

    def test_the_carmichael_data_is_complete_and_correct(self):
        assert _CARMICHAEL == sorted(set(_CARMICHAEL))
        for exponent, count in _CARMICHAEL_COUNTS.items():
            assert sum(1 for n in _CARMICHAEL if n < 10**exponent) == count
        assert all(_is_carmichael(n) for n in _CARMICHAEL)

    def test_rejects_every_carmichael_number_below_10_to_the_10(self):
        assert not any(is_probable_prime(n) for n in _CARMICHAEL)

    def test_rejects_strong_pseudoprimes_to_small_bases(self):
        for n in _STRONG_PSEUDOPRIMES:
            assert not _reference_is_prime(n)
            assert not is_probable_prime(n)

    def test_products_around_the_screen_boundary(self):
        around = [p for p in range(400, 620) if _trial_division(p)]
        assert 499 in around and 503 in around
        for n in around:
            assert is_probable_prime(n)
        for index, p in enumerate(around):
            for q in around[index:]:
                assert not is_probable_prime(p * q), (p, q)
        for n in (499 * 499 * 503, 2 * 503, 503 * 509 * 521):
            assert not is_probable_prime(n)

    def test_known_512_bit_primes_and_their_products(self):
        for p in _PRIMES_512:
            assert p.bit_length() == 512
            assert _reference_is_prime(p)
            assert is_probable_prime(p)
            for factor in (3, 499, 503, 65537):
                assert not is_probable_prime(p * factor)
        for index, p in enumerate(_PRIMES_512):
            for q in _PRIMES_512[index:]:
                assert not is_probable_prime(p * q)

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10**10))
    def test_agrees_with_trial_division_below_10_to_the_10(self, n):
        assert is_probable_prime(n) == _trial_division(n)

    @_SETTINGS
    @given(st.integers(min_value=2**511, max_value=2**512 - 1))
    def test_agrees_with_the_reference_on_512_bit_odd_numbers(self, n):
        n |= 1
        assert is_probable_prime(n) == _reference_is_prime(n)


class TestGeneratePrime:
    @pytest.mark.parametrize("bits", [8, 9, 16, 33, 64, 512])
    def test_has_exactly_bits_bits_and_the_top_two_set(self, bits):
        rng = SecureRandom(seed=b"prime-%d" % bits)
        for _ in range(3):
            prime = generate_prime(bits, rng=rng)
            assert prime.bit_length() == bits
            assert prime >> (bits - 2) == 0b11
            assert _reference_is_prime(prime)

    def test_a_512_bit_prime_meets_the_fips_186_4_floor(self):
        prime = generate_prime(512)
        assert prime * prime >= 1 << 1023  # p >= sqrt(2) * 2**511


class TestRSAKeyGeneration:
    def _count_primes(self, monkeypatch):
        calls = []

        def counting(bits, rng=None):
            calls.append(bits)
            return generate_prime(bits, rng=rng)

        monkeypatch.setattr(rsa_module, "generate_prime", counting)
        return calls

    def test_every_modulus_is_1024_bits_from_exactly_two_primes(self, monkeypatch):
        calls = self._count_primes(monkeypatch)
        for seed in range(8):
            del calls[:]
            keypair = RSAScheme().generate_keypair(rng=SecureRandom(seed=b"key-%d" % seed))
            params = keypair.private.params
            p, q, n = params["p"], params["q"], params["n"]
            assert calls == [512, 512]
            assert n == p * q and n.bit_length() == 1024
            assert p != q
            assert math.gcd(PUBLIC_EXPONENT, (p - 1) * (q - 1)) == 1
            assert min(p, q) ** 2 >= 1 << 1023

    def test_default_generator_keys_are_1024_bits(self):
        for _ in range(3):
            assert RSAScheme().generate_keypair().public.params["n"].bit_length() == 1024

    def test_the_same_seed_yields_the_same_key(self):
        first = RSAScheme().generate_keypair(rng=SecureRandom(seed=b"same"))
        second = RSAScheme().generate_keypair(rng=SecureRandom(seed=b"same"))
        assert first.private.params == second.private.params
        assert first.public.key_id == second.public.key_id
