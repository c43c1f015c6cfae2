"""Property-based tests for canonical encoding, the audit log and the stores."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import codec
from repro.clock import Clock
from repro.core.evidence import EvidenceBuilder, EvidenceToken, TokenType
from repro.crypto.signature import Signer, get_scheme
from repro.persistence.audit_log import AuditLog
from repro.persistence.evidence_store import EvidenceStore, StoredEvidence
from repro.persistence.state_store import StateStore
from repro.persistence.storage import InMemoryBackend

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# JSON-like values the codec must round-trip losslessly.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
    st.binary(max_size=40),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


def normalise(value):
    """Tuples become lists after decoding; normalise for comparison."""
    if isinstance(value, tuple):
        return [normalise(item) for item in value]
    if isinstance(value, list):
        return [normalise(item) for item in value]
    if isinstance(value, dict):
        return {key: normalise(item) for key, item in value.items()}
    return value


class TestCodecProperties:
    @_SETTINGS
    @given(json_values)
    def test_roundtrip_is_lossless(self, value):
        assert codec.decode(codec.encode(value)) == normalise(value)

    @_SETTINGS
    @given(st.dictionaries(st.text(min_size=1, max_size=8), json_scalars, max_size=6))
    def test_encoding_is_independent_of_insertion_order(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert codec.encode(mapping) == codec.encode(reordered)

    @_SETTINGS
    @given(json_values)
    def test_encoded_size_is_consistent(self, value):
        assert codec.encoded_size(value) == len(codec.encode(value))


class TestAuditLogProperties:
    @_SETTINGS
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.text(min_size=1, max_size=10)),
            max_size=15,
        )
    )
    def test_log_always_verifies_after_appends(self, entries):
        log = AuditLog("urn:org:prop")
        for category, subject in entries:
            log.append(f"cat.{category}", subject, {"note": subject})
        assert log.verify_integrity()
        assert len(log) == len(entries)

    @_SETTINGS
    @given(
        st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=10),
        st.integers(min_value=0, max_value=9),
        st.binary(min_size=1, max_size=4),
    )
    def test_any_backend_mutation_is_detected(self, subjects, index, garbage):
        backend = InMemoryBackend()
        log = AuditLog("urn:org:prop", backend=backend)
        for subject in subjects:
            log.append("cat", subject)
        keys = backend.keys()
        key = keys[index % len(keys)]
        backend.put(key, backend.get(key) + garbage)
        assert not log.verify_integrity()


class TestStateStoreProperties:
    @_SETTINGS
    @given(json_values)
    def test_store_and_resolve_roundtrip(self, state):
        store = StateStore("urn:org:prop")
        digest = store.store_state(state)
        assert store.resolve_digest(digest) == normalise(state)

    @_SETTINGS
    @given(st.lists(st.dictionaries(st.text(max_size=5), json_scalars, max_size=4), max_size=8))
    def test_version_history_reconstructs_every_agreed_state(self, states):
        store = StateStore("urn:org:prop")
        for state in states:
            store.record_version("object", state)
        assert store.version_count("object") == len(states)
        for version, state in enumerate(states):
            assert store.state_at_version("object", version) == normalise(state)
            assert store.is_agreed_state("object", state)


class _FixedClock(Clock):
    def __init__(self, value):
        self._value = value

    def now(self):
        return self._value


_BUILDER = EvidenceBuilder(
    party="urn:org:prop",
    signer=Signer(get_scheme("rsa").generate_keypair(bits=512).private),
)

# Quotes, backslashes, control characters, non-ASCII and astral code points:
# everything the record envelope has to escape exactly as the codec does.
hostile_text = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\n\x7f\u2028:{}é\U0001f512'), st.characters()),
    max_size=20,
)
clock_values = st.one_of(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False),
)
dict_tokens = st.dictionaries(st.text(max_size=10), json_values, max_size=5)


class TestEvidenceRecordProperties:
    """The spliced record is the generic encoder's record, byte for byte."""

    @staticmethod
    def _stored(run_id, token_type, role, stored_at, token):
        backend = InMemoryBackend()
        store = EvidenceStore("urn:org:prop", backend, _FixedClock(stored_at))
        store.store(run_id, token_type, token, role=role)
        (key,) = backend.keys()
        return store, backend.get(key)

    @_SETTINGS
    @given(
        hostile_text,
        hostile_text,
        st.sampled_from([EvidenceStore.ROLE_GENERATED, EvidenceStore.ROLE_RECEIVED]),
        clock_values,
        dict_tokens,
    )
    def test_dict_token_record_is_the_generic_encoding(
        self, run_id, token_type, role, stored_at, token
    ):
        store, raw = self._stored(run_id, token_type, role, stored_at, token)
        record = StoredEvidence(run_id, token_type, role, stored_at, token)
        assert raw == codec.encode(record.to_dict())
        decoded = StoredEvidence.from_dict(codec.decode(raw))
        assert decoded == StoredEvidence(
            run_id, token_type, role, stored_at, normalise(token)
        )
        assert type(decoded.stored_at) is type(stored_at)
        assert store.evidence_for_run(run_id) == [decoded]
        assert store.storage_bytes() == len(raw)

    @_SETTINGS
    @given(
        hostile_text.filter(bool),
        hostile_text,
        clock_values,
        st.dictionaries(st.text(max_size=10), json_scalars, max_size=4),
    )
    def test_real_token_record_is_the_generic_encoding(
        self, run_id, token_type, stored_at, details
    ):
        token = _BUILDER.build(
            TokenType.NR_DECISION, run_id, 2, "urn:org:peer", {"p": run_id}, details
        )
        store, raw = self._stored(run_id, token_type, "received", stored_at, token)
        assert raw == codec.encode(
            {
                "run_id": run_id,
                "token_type": token_type,
                "role": "received",
                "stored_at": stored_at,
                "token": token.data_encoded(),
            }
        )
        decoded = StoredEvidence.from_dict(codec.decode(raw))
        assert (decoded.run_id, decoded.token_type) == (run_id, token_type)
        assert (decoded.role, decoded.stored_at) == ("received", stored_at)
        assert EvidenceToken.from_stored(decoded) == token
        assert store.tokens_of_type(run_id, token_type) == [decoded]
