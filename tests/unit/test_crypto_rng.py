"""Unit tests for the HMAC-DRBG generator and identifier helpers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto.rng import OSRandom, SecureRandom, default_rng, new_nonce, new_unique_id

_SRC = str(Path(__file__).resolve().parents[2] / "src")

# The first 64 bytes of ``SecureRandom(seed=b"nrbench")`` as the HMAC-DRBG
# has always produced them: fault plans and seeded tests replay this stream.
_NRBENCH_STREAM = bytes.fromhex(
    "807089112ba9b58330024c71f7f3bc598787a0b6c023b5df4892e72b271768bb"
    "b8a53f6a2b87771ec811d5de8a8e868523630af33620d7a713163682d2b968f6"
)


class TestSecureRandom:
    def test_seeded_stream_is_pinned(self):
        assert SecureRandom(seed=b"nrbench").random_bytes(64) == _NRBENCH_STREAM

    def test_seeded_generators_are_deterministic(self):
        a = SecureRandom(seed=b"seed")
        b = SecureRandom(seed=b"seed")
        assert a.random_bytes(64) == b.random_bytes(64)

    def test_different_seeds_diverge(self):
        a = SecureRandom(seed=b"seed-a")
        b = SecureRandom(seed=b"seed-b")
        assert a.random_bytes(64) != b.random_bytes(64)

    def test_successive_outputs_differ(self):
        rng = SecureRandom(seed=b"seed")
        assert rng.random_bytes(32) != rng.random_bytes(32)

    def test_requested_length_is_respected(self):
        rng = SecureRandom(seed=b"seed")
        for length in (0, 1, 31, 32, 33, 100):
            assert len(rng.random_bytes(length)) == length

    def test_negative_length_rejected(self):
        rng = SecureRandom(seed=b"seed")
        with pytest.raises(ValueError):
            rng.random_bytes(-1)

    def test_random_int_respects_bit_bound(self):
        rng = SecureRandom(seed=b"seed")
        for _ in range(50):
            assert rng.random_int(16) < 2 ** 16

    def test_random_int_rejects_non_positive_bits(self):
        rng = SecureRandom(seed=b"seed")
        with pytest.raises(ValueError):
            rng.random_int(0)

    def test_random_int_below_bound(self):
        rng = SecureRandom(seed=b"seed")
        for _ in range(100):
            assert 0 <= rng.random_int_below(13) < 13

    def test_random_int_below_rejects_non_positive(self):
        rng = SecureRandom(seed=b"seed")
        with pytest.raises(ValueError):
            rng.random_int_below(0)

    def test_random_int_range(self):
        rng = SecureRandom(seed=b"seed")
        for _ in range(100):
            assert 5 <= rng.random_int_range(5, 9) < 9

    def test_random_int_range_rejects_empty_range(self):
        rng = SecureRandom(seed=b"seed")
        with pytest.raises(ValueError):
            rng.random_int_range(5, 5)

    def test_random_odd_int_is_odd_with_top_bit_set(self):
        rng = SecureRandom(seed=b"seed")
        for _ in range(20):
            value = rng.random_odd_int(64)
            assert value % 2 == 1
            assert value.bit_length() == 64

    def test_random_hex_length(self):
        rng = SecureRandom(seed=b"seed")
        assert len(rng.random_hex(11)) == 11

    def test_reseed_changes_future_output(self):
        a = SecureRandom(seed=b"seed")
        b = SecureRandom(seed=b"seed")
        a.random_bytes(16)
        b.random_bytes(16)
        a.reseed(b"extra entropy")
        assert a.random_bytes(16) != b.random_bytes(16)

    def test_rough_uniformity_of_bytes(self):
        rng = SecureRandom(seed=b"seed")
        data = rng.random_bytes(4096)
        zero_bits = sum(bin(byte).count("0") - (8 - byte.bit_length()) for byte in data)
        ones = sum(bin(byte).count("1") for byte in data)
        total = len(data) * 8
        # Roughly half the bits should be ones (within 5%).
        assert abs(ones / total - 0.5) < 0.05


class TestIdentifiers:
    def test_unique_ids_are_unique(self):
        ids = {new_unique_id() for _ in range(500)}
        assert len(ids) == 500

    def test_unique_id_uses_prefix(self):
        assert new_unique_id("run").startswith("run-")

    def test_nonce_length(self):
        assert len(new_nonce(24)) == 24

    def test_nonces_are_unpredictable(self):
        assert new_nonce() != new_nonce()


class TestDefaultGenerator:
    def test_default_generator_is_the_os_csprng(self):
        rng = default_rng()
        assert isinstance(rng, OSRandom)
        assert len(rng.random_bytes(33)) == 33
        rng.reseed(b"ignored")  # nothing to reseed
        assert rng.random_bytes(16) != rng.random_bytes(16)
        with pytest.raises(ValueError):
            rng.random_bytes(-1)

    def test_unique_id_format_is_prefix_and_32_hex_digits(self):
        prefix, _, digits = new_unique_id("msg").partition("-")
        assert prefix == "msg"
        assert len(digits) == 32 and set(digits) <= set("0123456789abcdef")


# Run in a fresh interpreter, so that exactly one thread exists when it forks.
_FORK_SCRIPT = """
import json, os
from repro.crypto.rng import new_nonce, new_unique_id
from repro.crypto.rsa import RSAScheme

def draws():
    modulus = RSAScheme().generate_keypair().public.params["n"]
    return [new_unique_id("msg"), new_nonce().hex(), "%x" % modulus]

read_end, write_end = os.pipe()
pid = os.fork()
if pid == 0:
    status = 1
    try:
        os.close(read_end)
        os.write(write_end, json.dumps(draws()).encode())
        status = 0
    finally:
        os._exit(status)
os.close(write_end)
parent = draws()
with os.fdopen(read_end, "rb") as pipe:
    child = json.loads(pipe.read())
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, "forked child failed"
print(json.dumps({"parent": parent, "child": child}))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_its_own_ids_nonces_and_keys():
    """A child forked after import shares no generator state with its parent."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([_SRC, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    result = subprocess.run(
        [sys.executable, "-c", _FORK_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    draws = json.loads(result.stdout)
    assert len(draws["child"]) == len(draws["parent"]) == 3
    for mine, theirs in zip(draws["parent"], draws["child"]):
        assert mine != theirs
