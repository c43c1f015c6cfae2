"""Property-based tests for the encode-once pipeline.

Covers the canonical-encoding invariants the pipeline relies on: the
fragment writer is byte-identical to the reference ``json.dumps`` encoding,
splicing pre-canonicalised values never changes the output, sets (including
heterogeneous ones) encode deterministically, and the OpenSSL modular
exponentiation backend -- one-shot and prepared kernels -- agrees with the
built-in ``pow``.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import codec
from repro.crypto.modexp import mod_exp, prepare_mod_exp

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

set_items = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    st.text(max_size=10),
    st.binary(max_size=10),
    st.floats(allow_nan=False, allow_infinity=False),
)


class _WithToDict:
    def __init__(self, inner):
        self._inner = inner

    def to_dict(self):
        return {"inner": self._inner}


json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
        st.sets(set_items, max_size=5),
        children.map(_WithToDict),
    ),
    max_leaves=25,
)


def _reference_encode(value):
    """The seed encoding: json.dumps over the jsonable conversion."""
    return json.dumps(
        codec.to_jsonable(value), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def normalise(value):
    """What the codec is specified to round-trip values into."""
    if isinstance(value, (list, tuple)):
        return [normalise(item) for item in value]
    if isinstance(value, dict):
        return {key: normalise(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return {normalise(item) for item in value}
    if isinstance(value, _WithToDict):
        return normalise(value.to_dict())
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    return value


class TestCanonicalEncodingProperties:
    @_SETTINGS
    @given(json_values)
    def test_fragment_writer_matches_reference_encoding(self, value):
        assert codec.encode(value) == _reference_encode(value)

    @_SETTINGS
    @given(json_values)
    def test_roundtrip_through_jsonable_is_lossless(self, value):
        restored = codec.from_jsonable(codec.to_jsonable(value))
        assert restored == normalise(value)

    @_SETTINGS
    @given(json_values)
    def test_decode_inverts_encode(self, value):
        assert codec.decode(codec.encode(value)) == normalise(value)

    @_SETTINGS
    @given(json_values)
    def test_splicing_encoded_values_is_transparent(self, value):
        encoded = codec.canonicalize(value)
        wrapped_plain = {"body": value, "copies": [value, value]}
        wrapped_spliced = {"body": encoded, "copies": [encoded, encoded]}
        assert codec.encode(wrapped_plain) == codec.encode(wrapped_spliced)

    @_SETTINGS
    @given(json_values)
    def test_encoded_carries_consistent_digest_and_size(self, value):
        encoded = codec.canonicalize(value)
        assert encoded.data == codec.encode(value)
        assert encoded.size == len(encoded.data)
        assert encoded.digest == codec.digest_of(value)
        assert codec.canonicalize(encoded) is encoded

    @_SETTINGS
    @given(st.sets(set_items, max_size=8))
    def test_heterogeneous_sets_encode_deterministically(self, items):
        # Regression: sorted() over mixed jsonable items used to raise
        # TypeError; items are now ordered by their canonical encoded form.
        first = codec.encode(items)
        second = codec.encode(set(list(items)))
        assert first == second
        assert codec.decode(first) == normalise(items)


def _reference_from_jsonable(value, object_reviver=None):
    """``codec.from_jsonable`` as it was before it stopped building key sets."""
    if isinstance(value, dict):
        if set(value.keys()) == {"__literal__"}:
            return {
                key: _reference_from_jsonable(item, object_reviver)
                for key, item in value["__literal__"].items()
            }
        if set(value.keys()) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        if set(value.keys()) == {"__set__"}:
            return set(
                _reference_from_jsonable(item, object_reviver)
                for item in value["__set__"]
            )
        if set(value.keys()) == {"__object__", "data"}:
            data = _reference_from_jsonable(value["data"], object_reviver)
            if object_reviver is not None:
                return object_reviver(value["__object__"], data)
            return data
        return {
            key: _reference_from_jsonable(item, object_reviver)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_reference_from_jsonable(item, object_reviver) for item in value]
    return value


hex_text = st.binary(max_size=8).map(bytes.hex)
plain_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
# Reserved names turn up as ordinary keys too, with any value under them.
keys = st.one_of(
    st.sampled_from(["__literal__", "__bytes__", "__set__", "__object__", "data"]),
    st.text(max_size=6),
)

jsonables = st.recursive(
    plain_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        # the four tag shapes, well-formed
        hex_text.map(lambda text: {"__bytes__": text}),
        st.lists(plain_scalars, max_size=4).map(lambda items: {"__set__": items}),
        st.dictionaries(keys, children, max_size=3).map(
            lambda plain: {"__literal__": plain}
        ),
        st.tuples(st.text(max_size=6), children).map(
            lambda pair: {"__object__": pair[0], "data": pair[1]}
        ),
        # the same shapes holding what a tag never holds
        st.lists(children, max_size=3).map(lambda items: {"__set__": items}),
        children.map(lambda anything: {"__bytes__": anything}),
        # near misses: one key too many, one too few
        st.tuples(hex_text, children).map(
            lambda pair: {"__bytes__": pair[0], "x": pair[1]}
        ),
        st.text(max_size=6).map(lambda name: {"__object__": name}),
        st.tuples(st.text(max_size=6), children, children).map(
            lambda triple: {
                "__object__": triple[0],
                "data": triple[1],
                "extra": triple[2],
            }
        ),
    ),
    max_leaves=20,
)


def _outcome(function, value, object_reviver):
    try:
        return "returned", function(value, object_reviver)
    except Exception as error:  # noqa: BLE001 - the kind of failure is the outcome
        return "raised", type(error)


class TestFromJsonableMatchesReference:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        jsonables,
        st.sampled_from([None, lambda name, data: ("revived", name, repr(data))]),
    )
    def test_same_result_or_same_failure_for_every_jsonable(self, value, reviver):
        assert _outcome(codec.from_jsonable, value, reviver) == _outcome(
            _reference_from_jsonable, value, reviver
        )

    def test_reserved_shapes_and_their_near_misses(self):
        assert codec.from_jsonable({}) == {}
        assert codec.from_jsonable({"__bytes__": "00ff"}) == b"\x00\xff"
        assert codec.from_jsonable({"__bytes__": "00", "x": 1}) == {
            "__bytes__": "00",
            "x": 1,
        }
        assert codec.from_jsonable({"__set__": [1, {"__bytes__": "00"}]}) == {1, b"\x00"}
        assert codec.from_jsonable({"__literal__": {"__bytes__": "00"}}) == {
            "__bytes__": "00"
        }
        assert codec.from_jsonable({"__object__": "T"}) == {"__object__": "T"}
        assert codec.from_jsonable({"__object__": "T", "data": [1]}) == [1]
        assert codec.from_jsonable(
            {"__object__": "T", "data": {"__bytes__": "00"}}, lambda name, data: (name, data)
        ) == ("T", b"\x00")


class TestModExpBackendProperties:
    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=2 ** 512),
        st.integers(min_value=0, max_value=2 ** 512),
        st.integers(min_value=1, max_value=2 ** 512),
    )
    def test_mod_exp_matches_builtin_pow(self, base, exponent, modulus):
        assert mod_exp(base, exponent, modulus) == pow(base, exponent, modulus)

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=2 ** 1100),
        st.integers(min_value=0, max_value=2 ** 512),
        st.integers(min_value=1, max_value=2 ** 1024).map(lambda half: 2 * half + 1),
        st.booleans(),
    )
    def test_prepared_kernel_matches_builtin_pow(self, base, exponent, modulus, secret):
        # Odd moduli from 3 up, bases past the modulus, both kernels.
        kernel = prepare_mod_exp(exponent, modulus, secret=secret)
        assert kernel(base) == pow(base, exponent, modulus)
