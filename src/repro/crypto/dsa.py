"""From-scratch DSA signature scheme.

Domain parameters (p, q, g) are generated once per parameter size and cached,
since parameter generation (finding a prime p with q | p - 1) is by far the
most expensive step and the parameters are public and shareable, exactly as
in deployed DSA.  Per-message nonces are derived deterministically from the
private key and the digest (RFC 6979 style) so that signing never risks nonce
reuse under a deterministic test RNG.

Nonce precomputation: the expensive part of a DSA signature -- ``r = g^k mod
p`` and ``k^-1 mod q`` -- does not depend on the message, only on the domain
parameters.  A :class:`NoncePool` precomputes ``(k, k^-1, r)`` triples off
the critical path (a background refill thread plus a synchronous fallback for
an empty pool), cutting online signing to a hash reduction and two modular
multiplications.  Pools are keyed by ``(p, q, g)``, so one pool serves every
key sharing a parameter set.  Pooled nonces come from the OS CSPRNG (nonce
reuse probability ~2^-160 per pair), trading the deterministic RFC 6979
derivation for offline precomputation; pooling is
therefore **opt-in** via :func:`enable_nonce_pools` and signing falls back to
the deterministic path whenever pooling is disabled.
"""

from __future__ import annotations

import hashlib
import hmac
import threading
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.crypto.modexp import mod_exp
from repro.crypto.primality import generate_prime, generate_prime_congruent, modular_inverse
from repro.crypto.rng import SecureRandom, default_rng
from repro.errors import SignatureError
from repro.crypto.signature import SignatureScheme

#: Default sizes.  (1024, 160) is the classic FIPS 186-2 parameter size; the
#: test suite uses (512, 160) for speed via the ``p_bits`` option.
DEFAULT_P_BITS = 1024
DEFAULT_Q_BITS = 160

_parameter_cache: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
_parameter_lock = threading.Lock()


def generate_domain_parameters(
    p_bits: int = DEFAULT_P_BITS,
    q_bits: int = DEFAULT_Q_BITS,
    rng: Optional[SecureRandom] = None,
) -> Tuple[int, int, int]:
    """Generate (or fetch cached) DSA domain parameters ``(p, q, g)``."""
    key = (p_bits, q_bits)
    with _parameter_lock:
        if key in _parameter_cache:
            return _parameter_cache[key]
    rng = rng or default_rng()
    q = generate_prime(q_bits, rng=rng)
    # Find p = k*q + 1 prime with the requested size.
    p = generate_prime_congruent(p_bits, q, 1, rng=rng)
    # Find a generator of the order-q subgroup.
    exponent = (p - 1) // q
    g = 1
    h = 2
    while g == 1:
        g = mod_exp(h, exponent, p)
        h += 1
    params = (p, q, g)
    with _parameter_lock:
        _parameter_cache[key] = params
    return params


def _deterministic_nonce(private_x: int, digest: bytes, q: int) -> int:
    """Derive a per-signature nonce k in [1, q-1] from the key and digest."""
    q_bytes = (q.bit_length() + 7) // 8
    key_material = private_x.to_bytes((private_x.bit_length() + 7) // 8 or 1, "big")
    counter = 0
    while True:
        block = hmac.new(
            key_material, digest + counter.to_bytes(4, "big"), hashlib.sha256
        ).digest()
        while len(block) < q_bytes:
            block += hmac.new(key_material, block, hashlib.sha256).digest()
        k = int.from_bytes(block[:q_bytes], "big") % q
        if 1 <= k <= q - 1:
            return k
        counter += 1


class NoncePool:
    """Precomputed DSA signing nonces for one set of domain parameters.

    Holds up to ``capacity`` ready-to-use ``(k, k^-1 mod q, r = (g^k mod p)
    mod q)`` triples.  :meth:`take` pops in O(1); an empty pool computes a
    triple synchronously (correctness never depends on the refill thread
    keeping up).  With ``background=True`` a daemon thread refills the pool
    whenever it drains below the low-water mark, so steady-state signing
    stays on the two-multiplication fast path.
    """

    def __init__(
        self,
        p: int,
        q: int,
        g: int,
        capacity: int = 128,
        rng: Optional[SecureRandom] = None,
        background: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("nonce pool capacity must be at least 1")
        self.p, self.q, self.g = p, q, g
        self.capacity = capacity
        self._low_water = max(1, capacity // 4)
        self._rng = rng or default_rng()
        self._triples: Deque[Tuple[int, int, int]] = deque()
        self._lock = threading.Lock()
        self._refill_needed = threading.Event()
        self._stopped = False
        self.hits = 0
        self.misses = 0
        self.produced = 0
        self._thread: Optional[threading.Thread] = None
        if background:
            self._thread = threading.Thread(
                target=self._refill_loop, name="repro-nonce-pool", daemon=True
            )
            self._thread.start()
            self._refill_needed.set()

    def _generate(self) -> Tuple[int, int, int]:
        while True:
            k = self._rng.random_int_range(1, self.q)
            r = mod_exp(self.g, k, self.p) % self.q
            if r == 0:  # astronomically rare; a fresh nonce is the fix
                continue
            return k, modular_inverse(k, self.q), r

    def size(self) -> int:
        with self._lock:
            return len(self._triples)

    def precompute(self, count: int) -> int:
        """Synchronously fill up to ``count`` triples; returns how many were added."""
        added = 0
        for _ in range(count):
            triple = self._generate()
            with self._lock:
                if len(self._triples) >= self.capacity:
                    break
                self._triples.append(triple)
                self.produced += 1
                added += 1
        return added

    def take(self) -> Tuple[int, int, int]:
        """Pop a precomputed triple, computing one inline when the pool is dry."""
        with self._lock:
            if self._triples:
                triple = self._triples.popleft()
                self.hits += 1
                remaining = len(self._triples)
            else:
                triple = None
                self.misses += 1
                remaining = 0
        if self._thread is not None and remaining <= self._low_water:
            self._refill_needed.set()
        if triple is None:
            triple = self._generate()
        return triple

    def _refill_loop(self) -> None:
        while True:
            self._refill_needed.wait()
            if self._stopped:
                return
            self._refill_needed.clear()
            while not self._stopped:
                with self._lock:
                    if len(self._triples) >= self.capacity:
                        break
                triple = self._generate()
                with self._lock:
                    if len(self._triples) < self.capacity:
                        self._triples.append(triple)
                        self.produced += 1

    def close(self) -> None:
        """Stop the refill thread (precomputed triples remain usable)."""
        self._stopped = True
        self._refill_needed.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._triples),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "produced": self.produced,
            }


_nonce_pools: Dict[Tuple[int, int, int], NoncePool] = {}
_nonce_pools_lock = threading.Lock()
_nonce_pool_settings: Optional[Dict[str, Any]] = None


def enable_nonce_pools(capacity: int = 128, background: bool = True) -> None:
    """Turn on pooled signing for every DSA key (pools created per parameter set)."""
    global _nonce_pool_settings
    with _nonce_pools_lock:
        _nonce_pool_settings = {"capacity": capacity, "background": background}


def disable_nonce_pools() -> None:
    """Return to deterministic RFC 6979-style signing and drop all pools."""
    global _nonce_pool_settings
    with _nonce_pools_lock:
        _nonce_pool_settings = None
        pools = list(_nonce_pools.values())
        _nonce_pools.clear()
    for pool in pools:
        pool.close()


def nonce_pools_enabled() -> bool:
    with _nonce_pools_lock:
        return _nonce_pool_settings is not None


def nonce_pool_for(p: int, q: int, g: int) -> Optional[NoncePool]:
    """The pool serving parameter set ``(p, q, g)``, or ``None`` when disabled."""
    with _nonce_pools_lock:
        if _nonce_pool_settings is None:
            return None
        key = (p, q, g)
        pool = _nonce_pools.get(key)
        if pool is None:
            pool = NoncePool(p, q, g, **_nonce_pool_settings)
            _nonce_pools[key] = pool
        return pool


def nonce_pool_stats() -> Dict[str, Dict[str, int]]:
    """Per-parameter-set pool statistics.

    Keys carry the parameter bit sizes for readability plus a short digest of
    the actual ``(p, q, g)`` values, so two distinct parameter sets of equal
    size never collapse into one entry.
    """
    with _nonce_pools_lock:
        pools = dict(_nonce_pools)
    stats = {}
    for (p, q, g), pool in pools.items():
        fingerprint = hashlib.sha256(f"{p}:{q}:{g}".encode("ascii")).hexdigest()[:8]
        stats[f"p{p.bit_length()}/q{q.bit_length()}/{fingerprint}"] = pool.stats()
    return stats


class DSAScheme(SignatureScheme):
    """DSA signatures over cached domain parameters."""

    name = "dsa"

    def generate_keypair(
        self,
        p_bits: int = DEFAULT_P_BITS,
        q_bits: int = DEFAULT_Q_BITS,
        rng: Optional[SecureRandom] = None,
        **options: Any,
    ) -> KeyPair:
        rng = rng or default_rng()
        p, q, g = generate_domain_parameters(p_bits, q_bits, rng=rng)
        x = rng.random_int_range(1, q)
        y = mod_exp(g, x, p)
        public = PublicKey(scheme=self.name, params={"p": p, "q": q, "g": g, "y": y})
        private = PrivateKey(
            scheme=self.name,
            params={"p": p, "q": q, "g": g, "y": y, "x": x},
            key_id=public.key_id,
        )
        return KeyPair(private=private, public=public)

    def sign_digest(self, private_key: PrivateKey, digest: bytes) -> bytes:
        p = private_key.params["p"]
        q = private_key.params["q"]
        g = private_key.params["g"]
        x = private_key.params["x"]
        z = int.from_bytes(digest, "big") % q
        pool = nonce_pool_for(p, q, g)
        if pool is not None:
            # Online fast path: the message-independent work was precomputed.
            while True:
                k, k_inv, r = pool.take()
                s = (k_inv * (z + x * r)) % q
                if s != 0:
                    break
            return self._encode_signature(r, s, q)
        while True:
            k = _deterministic_nonce(x, digest, q)
            r = mod_exp(g, k, p) % q
            if r == 0:
                digest = hashlib.sha256(digest).digest()
                continue
            k_inv = modular_inverse(k, q)
            s = (k_inv * (z + x * r)) % q
            if s == 0:
                digest = hashlib.sha256(digest).digest()
                continue
            break
        return self._encode_signature(r, s, q)

    @staticmethod
    def _encode_signature(r: int, s: int, q: int) -> bytes:
        q_bytes = (q.bit_length() + 7) // 8
        return r.to_bytes(q_bytes, "big") + s.to_bytes(q_bytes, "big")

    def verify_digest(
        self, public_key: PublicKey, digest: bytes, signature: bytes
    ) -> bool:
        p = public_key.params["p"]
        q = public_key.params["q"]
        g = public_key.params["g"]
        y = public_key.params["y"]
        q_bytes = (q.bit_length() + 7) // 8
        if len(signature) != 2 * q_bytes:
            return False
        r = int.from_bytes(signature[:q_bytes], "big")
        s = int.from_bytes(signature[q_bytes:], "big")
        if not (0 < r < q and 0 < s < q):
            return False
        z = int.from_bytes(digest, "big") % q
        try:
            w = modular_inverse(s, q)
        except ValueError:
            return False
        u1 = (z * w) % q
        u2 = (r * w) % q
        v = ((mod_exp(g, u1, p) * mod_exp(y, u2, p)) % p) % q
        return v == r
