"""Hardware-speed modular exponentiation.

Every signature scheme in this package bottoms out in ``base ** exp % mod``
over multi-hundred-bit integers.  CPython's built-in ``pow`` implements this
portably but roughly an order of magnitude slower than OpenSSL's
Montgomery-multiplication path.  Python itself links against libcrypto, so
when that shared library is loadable this module binds it via :mod:`ctypes`:

* :func:`mod_exp` -- a one-shot ``BN_mod_exp`` that converts all three
  operands and builds a Montgomery context per call.  Prime generation, DSA
  and the forward-secure scheme use it (no benchmark workload selects either
  scheme, so they were left on it).
* :func:`prepare_mod_exp` -- converts exponent and modulus and sets up the
  ``BN_MONT_CTX`` once, returning a kernel that converts only the base: a
  secret exponent runs on ``BN_mod_exp_mont_consttime``, a public one on the
  ~3x faster ``BN_mod_exp_mont``.  RSA keeps one kernel per key half and per
  public key.  Threads share a kernel's Montgomery context read-only, each
  call has its own ``BN_CTX``, and a finalizer frees the OpenSSL objects
  when the kernel is dropped.

Both are ``ctypes.CDLL`` calls, so the GIL is released while OpenSSL works.
Both are self-checked against ``pow`` on a few vectors at import time; any
disagreement or loading failure disables OpenSSL (silently --
:func:`backend_name` says which runs) and both fall back to the built-in
``pow`` with identical results, so correctness never depends on the
accelerator.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import weakref
from typing import Any, Callable, Optional, Tuple

__all__ = ["mod_exp", "prepare_mod_exp", "backend_name"]

#: ``base -> base ** exponent % modulus`` for a fixed exponent and modulus.
Kernel = Callable[[int], int]

# OpenSSL's BN_FLG_CONSTTIME: set on a secret kernel's exponent and modulus.
_BN_FLG_CONSTTIME = 0x04


def _python_mod_exp(base: int, exponent: int, modulus: int) -> int:
    return pow(base, exponent, modulus)


def _release(frees: Tuple[Tuple[Callable[[Any], None], Any], ...]) -> None:
    """A dropped kernel's finalizer: free its OpenSSL objects."""
    for free, handle in frees:
        free(handle)


def _load_openssl() -> Tuple[Optional[Callable[[int, int, int], int]], Optional[Callable]]:
    """Bind ``BN_mod_exp`` and the Montgomery kernels from libcrypto, or
    return ``(None, None)``."""
    library_name = ctypes.util.find_library("crypto")
    if library_name is None:
        return None, None
    pointer = ctypes.c_void_p
    try:
        lib = ctypes.CDLL(library_name)
        prototypes = [
            ("BN_new", pointer, []),
            ("BN_free", None, [pointer]),
            ("BN_clear_free", None, [pointer]),
            ("BN_set_flags", None, [pointer, ctypes.c_int]),
            ("BN_CTX_new", pointer, []),
            ("BN_CTX_free", None, [pointer]),
            ("BN_bin2bn", pointer, [ctypes.c_char_p, ctypes.c_int, pointer]),
            ("BN_bn2bin", ctypes.c_int, [pointer, ctypes.c_char_p]),
            ("BN_bn2binpad", ctypes.c_int, [pointer, ctypes.c_char_p, ctypes.c_int]),
            ("BN_num_bits", ctypes.c_int, [pointer]),
            ("BN_mod_exp", ctypes.c_int, [pointer] * 5),
            ("BN_MONT_CTX_new", pointer, []),
            ("BN_MONT_CTX_set", ctypes.c_int, [pointer] * 3),
            ("BN_MONT_CTX_free", None, [pointer]),
            ("BN_mod_exp_mont", ctypes.c_int, [pointer] * 6),
            ("BN_mod_exp_mont_consttime", ctypes.c_int, [pointer] * 6),
        ]
        for name, restype, argtypes in prototypes:
            function = getattr(lib, name)
            function.restype = restype
            function.argtypes = argtypes
    except (OSError, AttributeError):
        return None, None

    bn_new = lib.BN_new
    bn_free = lib.BN_free
    bn_ctx_new = lib.BN_CTX_new
    bn_ctx_free = lib.BN_CTX_free
    bn_bin2bn = lib.BN_bin2bn
    bn_bn2bin = lib.BN_bn2bin
    bn_bn2binpad = lib.BN_bn2binpad
    bn_num_bits = lib.BN_num_bits
    bn_mod_exp = lib.BN_mod_exp

    def openssl_mod_exp(base: int, exponent: int, modulus: int) -> int:
        if exponent < 0 or modulus <= 0 or base < 0:
            # Rare edge shapes (modular inverses, zero moduli errors) keep
            # the built-in semantics exactly.
            return pow(base, exponent, modulus)
        base_bytes = base.to_bytes((base.bit_length() + 7) // 8 or 1, "big")
        exp_bytes = exponent.to_bytes((exponent.bit_length() + 7) // 8 or 1, "big")
        mod_bytes = modulus.to_bytes((modulus.bit_length() + 7) // 8 or 1, "big")
        ctx = bn_ctx_new()
        result = bn_new()
        bn_base = bn_bin2bn(base_bytes, len(base_bytes), None)
        bn_exp = bn_bin2bn(exp_bytes, len(exp_bytes), None)
        bn_mod = bn_bin2bn(mod_bytes, len(mod_bytes), None)
        try:
            if ctx is None or result is None or None in (bn_base, bn_exp, bn_mod):
                return pow(base, exponent, modulus)
            if bn_mod_exp(result, bn_base, bn_exp, bn_mod, ctx) != 1:
                return pow(base, exponent, modulus)
            length = (bn_num_bits(result) + 7) // 8
            if length == 0:
                return 0
            buffer = ctypes.create_string_buffer(length)
            written = bn_bn2bin(result, buffer)
            return int.from_bytes(buffer.raw[:written], "big")
        finally:
            for bn in (result, bn_base, bn_exp, bn_mod):
                if bn is not None:
                    bn_free(bn)
            if ctx is not None:
                bn_ctx_free(ctx)

    def to_bn(value: int) -> Any:
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        return bn_bin2bn(raw, len(raw), None)

    def prepare(exponent: int, modulus: int, secret: bool) -> Optional[Kernel]:
        # Odd modulus > 1 and exponent >= 0 (checked by prepare_mod_exp).
        bn_exponent, bn_modulus = to_bn(exponent), to_bn(modulus)
        mont = lib.BN_MONT_CTX_new()
        frees = (
            (lib.BN_clear_free, bn_exponent),
            (lib.BN_clear_free, bn_modulus),
            (lib.BN_MONT_CTX_free, mont),
        )
        ctx = bn_ctx_new()
        ready = None not in (bn_exponent, bn_modulus, mont, ctx)
        if ready and secret:
            lib.BN_set_flags(bn_exponent, _BN_FLG_CONSTTIME)
            lib.BN_set_flags(bn_modulus, _BN_FLG_CONSTTIME)
        ready = ready and lib.BN_MONT_CTX_set(mont, bn_modulus, ctx) == 1
        bn_ctx_free(ctx)
        if not ready:
            _release(frees)
            return None
        exponentiate = lib.BN_mod_exp_mont_consttime if secret else lib.BN_mod_exp_mont
        size = (modulus.bit_length() + 7) // 8

        def kernel(base: int) -> int:
            if base < 0:
                return pow(base, exponent, modulus)
            raw = base.to_bytes((base.bit_length() + 7) // 8, "big")
            ctx, result = bn_ctx_new(), bn_new()
            bn_base = bn_bin2bn(raw, len(raw), None)
            try:
                if (
                    None not in (ctx, bn_base, result)
                    and exponentiate(result, bn_base, bn_exponent, bn_modulus, ctx, mont) == 1
                ):
                    buffer = ctypes.create_string_buffer(size)
                    if bn_bn2binpad(result, buffer, size) == size:
                        return int.from_bytes(buffer.raw, "big")
                return pow(base, exponent, modulus)
            finally:
                bn_free(result)
                bn_free(bn_base)
                bn_ctx_free(ctx)

        weakref.finalize(kernel, _release, frees)
        return kernel

    # Import-time self-check: any disagreement disables the accelerator.
    # The odd moduli above 1 also check both kernels: zero base, exponents
    # 0 and 1, bases past the modulus, RSA-sized public and private shapes.
    try:
        vectors = [
            (0, 1, 7),
            (5, 0, 9),
            (2, 10, 1),
            (1234567, 891011, 2**61 - 1),
            (3**50, 2**127 + 9, (2**89 - 1) * 97),
            (7**300, 65537, 2**511 + 187),
            (5**250, 2**509 + 3, 2**511 + 187),
        ]
        for b, e, m in vectors:
            expected = pow(b, e, m)
            if openssl_mod_exp(b, e, m) != expected:
                return None, None
            if m > 1 and any(prepare(e, m, s)(b) != expected for s in (False, True)):
                return None, None
    except Exception:
        return None, None
    return openssl_mod_exp, prepare


_OPENSSL_MOD_EXP, _OPENSSL_PREPARE = _load_openssl()

#: ``mod_exp(base, exponent, modulus)`` -- drop-in for the three-argument
#: ``pow`` on non-negative operands, using OpenSSL when available.
mod_exp: Callable[[int, int, int], int] = _OPENSSL_MOD_EXP or _python_mod_exp


def prepare_mod_exp(exponent: int, modulus: int, *, secret: bool) -> Kernel:
    """Return ``base -> base ** exponent % modulus`` with the set-up done once.

    ``secret`` marks an exponent that must not leak through timing (a
    private key's): it gets the constant-time kernel.  The result always
    equals ``pow``; even moduli, moduli below 2 and negative exponents or
    bases are handed to ``pow``, as is everything without libcrypto.
    """
    if _OPENSSL_PREPARE is not None and modulus > 1 and modulus & 1 and exponent >= 0:
        kernel = _OPENSSL_PREPARE(exponent, modulus, secret)
        if kernel is not None:
            return kernel
    return lambda base: pow(base, exponent, modulus)


def backend_name() -> str:
    """Which implementation backs :func:`mod_exp` and :func:`prepare_mod_exp`
    (``openssl`` or ``python``)."""
    return "openssl" if _OPENSSL_MOD_EXP is not None else "python"
