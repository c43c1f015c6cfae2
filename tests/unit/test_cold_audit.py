"""Auditing stored evidence: what is revived, what is verified, what is decided.

``DisputeResolver.adjudicate_from_store`` revives only the records that can
bear on a claim and verifies each of those on the calling thread.  The counts
below are deterministic (calls, not timings), and the verdict table pins that
selecting candidates early never changes what the arbiter decides.
"""

from dataclasses import replace

import pytest

from repro import (
    ClaimType,
    ComponentDescriptor,
    DisputeClaim,
    DisputeResolver,
    DomainConfig,
    DurabilityConfig,
    StorageProfile,
    TokenType,
    TrustDomain,
    parallel,
)
from repro.core.evidence import EvidenceBuilder, EvidenceToken, EvidenceVerifier
from repro.crypto.signature import (
    Signer,
    clear_verification_cache,
    generate_keypair,
    get_scheme,
    verification_cache_stats,
)
from repro.persistence.evidence_store import EvidenceStore
from tests.conftest import QuoteService

ALICE, BOB, CAROL = "urn:org:alice", "urn:org:bob", "urn:org:carol"
RUN = "run-disputed"

REFUTED = (
    "token {token.token_id} of type {token.token_type} signed by "
    "{token.issuer} for run {token.run_id} verifies; the denial is refuted"
)
STANDS = (
    "no verifiable evidence signed by the denying party was presented; "
    "the denial stands"
)
AGREED = (
    "a verifiable agreement outcome and the denying party's own signed "
    "decision were presented; the state was agreed"
)
NOT_AGREED = "agreement evidence incomplete or unverifiable; the denial stands"


@pytest.fixture(scope="module")
def parties():
    """Builders for three parties and a verifier that knows all their keys."""
    keypairs = {party: generate_keypair("rsa") for party in (ALICE, BOB, CAROL)}
    builders = {
        party: EvidenceBuilder(party, Signer(keypair.private))
        for party, keypair in keypairs.items()
    }
    verifier = EvidenceVerifier(
        pinned_keys={party: keypair.public for party, keypair in keypairs.items()}
    )
    return builders, verifier


def build(builders, issuer, token_type, run_id=RUN, payload=None, details=None):
    return builders[issuer].build(
        token_type=token_type,
        run_id=run_id,
        step=1,
        recipient=CAROL,
        payload=payload if payload is not None else {"by": issuer},
        details=details,
    )


def store_of(*tokens, filed_under=RUN):
    store = EvidenceStore(CAROL)
    for token in tokens:
        store.store(filed_under, token.token_type, token)
    return store


def summary(verdict):
    return (
        verdict.refuted,
        verdict.upheld,
        verdict.reasoning,
        [token.token_id for token in verdict.supporting_evidence],
    )


def assert_verdict(resolver, claim, store, refuted, reasoning, supporting):
    verdict = resolver.adjudicate_from_store(claim, store)
    assert summary(verdict) == (
        refuted,
        not refuted,
        reasoning,
        [token.token_id for token in supporting],
    )
    # Selecting candidates before reviving is a shortcut, never the check:
    # presenting the whole run decides the claim the same way.
    everything = [
        EvidenceToken.from_stored(record)
        for record in store.evidence_for_run(claim.run_id)
    ]
    assert summary(resolver.adjudicate(claim, everything)) == summary(verdict)


class TestStoredTokenRevival:
    """A stored record's ``details`` are revived once, by ``codec.decode``."""

    @pytest.fixture(params=["memory", "sqlite"])
    def store(self, request, tmp_path):
        storage = (
            "memory"
            if request.param == "memory"
            else f"sqlite:{tmp_path / 'evidence.db'}"
        )
        return EvidenceStore(
            CAROL, backend=StorageProfile.parse(storage).backend_for(CAROL, "evidence")
        )

    def test_tag_shaped_plain_details_round_trip_bit_for_bit(self, parties, store):
        builders, verifier = parties
        token = build(
            builders,
            ALICE,
            TokenType.NRO_UPDATE,
            details={"note": {"__bytes__": "00"}, "raw": b"\x01", "tags": {"a", "b"}},
        )
        assert verifier.verify(token)
        store.store(RUN, token.token_type, token)
        (record,) = store.evidence_for_run(RUN)
        revived = EvidenceToken.from_stored(record)
        assert revived == token
        assert revived.details == {
            "note": {"__bytes__": "00"},
            "raw": b"\x01",
            "tags": {"a", "b"},
        }
        assert revived.body_bytes() == token.body_bytes()
        assert verifier.verify(revived)

    def test_issuer_cannot_deny_a_token_with_tag_shaped_details(self, parties, store):
        builders, verifier = parties
        token = build(
            builders,
            ALICE,
            TokenType.NRO_UPDATE,
            details={"note": {"__bytes__": "00"}},
        )
        store.store(RUN, token.token_type, token)
        claim = DisputeClaim(ClaimType.DENIES_UPDATE_ORIGIN, RUN, ALICE)
        assert_verdict(
            DisputeResolver(verifier),
            claim,
            store,
            True,
            REFUTED.format(token=token),
            [token],
        )


class TestVerdictTable:
    """``adjudicate_from_store`` over crafted stores: every field of the verdict."""

    def test_relabelled_issuer_with_the_forgers_signature(self, parties):
        builders, verifier = parties
        forged = replace(build(builders, BOB, TokenType.NRO_UPDATE), issuer=ALICE)
        claim = DisputeClaim(ClaimType.DENIES_UPDATE_ORIGIN, RUN, ALICE)
        assert_verdict(
            DisputeResolver(verifier), claim, store_of(forged), False, STANDS, []
        )

    def test_tampered_signature_bytes(self, parties):
        builders, verifier = parties
        genuine = build(builders, ALICE, TokenType.NRO_UPDATE)
        flipped = bytes([genuine.signature.value[0] ^ 1]) + genuine.signature.value[1:]
        tampered = replace(genuine, signature=replace(genuine.signature, value=flipped))
        claim = DisputeClaim(ClaimType.DENIES_UPDATE_ORIGIN, RUN, ALICE)
        assert_verdict(
            DisputeResolver(verifier), claim, store_of(tampered), False, STANDS, []
        )

    def test_token_of_another_run_filed_under_the_disputed_one(self, parties):
        builders, verifier = parties
        other = build(builders, ALICE, TokenType.NRO_UPDATE, run_id="run-other")
        claim = DisputeClaim(ClaimType.DENIES_UPDATE_ORIGIN, RUN, ALICE)
        assert_verdict(
            DisputeResolver(verifier), claim, store_of(other), False, STANDS, []
        )

    def test_payload_bound_claim_needs_the_disputed_payload(self, parties):
        builders, verifier = parties
        token = build(builders, ALICE, TokenType.NRO_UPDATE, payload={"price": 95})
        resolver = DisputeResolver(verifier)
        matching = DisputeClaim(
            ClaimType.DENIES_UPDATE_ORIGIN, RUN, ALICE, disputed_payload={"price": 95}
        )
        other = replace(matching, disputed_payload={"price": 1})
        store = store_of(token)
        assert_verdict(
            resolver, matching, store, True, REFUTED.format(token=token), [token]
        )
        assert_verdict(resolver, other, store, False, STANDS, [])

    def test_first_verifying_duplicate_in_presentation_order_wins(self, parties):
        builders, verifier = parties
        first = build(builders, ALICE, TokenType.NRO_UPDATE)
        second = build(builders, ALICE, TokenType.NRO_UPDATE)
        claim = DisputeClaim(ClaimType.DENIES_UPDATE_ORIGIN, RUN, ALICE)
        assert_verdict(
            DisputeResolver(verifier),
            claim,
            store_of(first, second),
            True,
            REFUTED.format(token=first),
            [first],
        )

    def test_invalid_candidate_ahead_of_a_valid_one(self, parties):
        builders, verifier = parties
        forged = replace(build(builders, BOB, TokenType.NR_DECISION), issuer=ALICE)
        decision = build(builders, ALICE, TokenType.NR_DECISION)
        bad_outcome = build(builders, BOB, TokenType.NR_OUTCOME, run_id="run-other")
        outcome = build(builders, BOB, TokenType.NR_OUTCOME)
        store = store_of(forged, bad_outcome, decision, outcome)
        resolver = DisputeResolver(verifier)
        assert_verdict(
            resolver,
            DisputeClaim(ClaimType.DENIES_UPDATE_DECISION, RUN, ALICE),
            store,
            True,
            REFUTED.format(token=decision),
            [decision],
        )
        assert_verdict(
            resolver,
            DisputeClaim(ClaimType.DENIES_AGREED_STATE, RUN, ALICE),
            store,
            True,
            AGREED,
            [outcome, decision],
        )

    def test_agreed_state_needs_the_deniers_own_decision(self, parties):
        builders, verifier = parties
        outcome = build(builders, BOB, TokenType.NR_OUTCOME)
        someone_elses = build(builders, CAROL, TokenType.NR_DECISION)
        claim = DisputeClaim(ClaimType.DENIES_AGREED_STATE, RUN, ALICE)
        assert_verdict(
            DisputeResolver(verifier),
            claim,
            store_of(outcome, someone_elses),
            False,
            NOT_AGREED,
            [],
        )

    def test_malformed_record_of_an_unrelated_type_is_not_revived(self, parties):
        builders, verifier = parties
        token = build(builders, ALICE, TokenType.NRO_UPDATE)
        store = store_of(token)
        store.store(RUN, TokenType.TTP_RELAY.value, {"issuer": ALICE, "garbage": True})
        resolver = DisputeResolver(verifier)
        verdict = resolver.adjudicate_from_store(
            DisputeClaim(ClaimType.DENIES_UPDATE_ORIGIN, RUN, ALICE), store
        )
        assert summary(verdict) == (
            True,
            False,
            REFUTED.format(token=token),
            [token.token_id],
        )

    @pytest.mark.parametrize("claim_type", list(ClaimType))
    def test_no_evidence_and_the_denial_stands(self, parties, claim_type):
        _, verifier = parties
        claim = DisputeClaim(claim_type, "run-that-never-happened", ALICE)
        reasoning = (
            NOT_AGREED if claim_type is ClaimType.DENIES_AGREED_STATE else STANDS
        )
        assert_verdict(
            DisputeResolver(verifier), claim, EvidenceStore(CAROL), False, reasoning, []
        )


class TestHonestRuns:
    """Every claim type an honest run supports, against both sides' stores."""

    def test_sharing_run(self, domain_factory):
        domain = domain_factory(3)
        proposer, member, other = domain.organisations.values()
        domain.share_object("doc", {"v": 0})
        outcome = proposer.propose_update("doc", {"v": 1})
        assert outcome.agreed
        run_id = outcome.run_id
        resolver = DisputeResolver(other.evidence_verifier)

        def held(org, token_type, issuer):
            """The first token of that type and issuer ``org`` stored for the run."""
            return next(
                EvidenceToken.from_stored(record)
                for record in org.evidence_store.tokens_of_type(run_id, token_type.value)
                if record.token["issuer"] == issuer
            )

        for holder in (proposer, member, other):
            nro_update = held(holder, TokenType.NRO_UPDATE, proposer.uri)
            assert_verdict(
                resolver,
                DisputeClaim(ClaimType.DENIES_UPDATE_ORIGIN, run_id, proposer.uri, "doc"),
                holder.evidence_store,
                True,
                REFUTED.format(token=nro_update),
                [nro_update],
            )
            decision = held(holder, TokenType.NR_DECISION, member.uri)
            assert_verdict(
                resolver,
                DisputeClaim(ClaimType.DENIES_UPDATE_DECISION, run_id, member.uri, "doc"),
                holder.evidence_store,
                True,
                REFUTED.format(token=decision),
                [decision],
            )
            assert_verdict(
                resolver,
                DisputeClaim(ClaimType.DENIES_AGREED_STATE, run_id, member.uri, "doc"),
                holder.evidence_store,
                True,
                AGREED,
                [held(holder, TokenType.NR_OUTCOME, proposer.uri), decision],
            )
            # The run holds no invocation evidence: those denials stand.
            assert_verdict(
                resolver,
                DisputeClaim(ClaimType.DENIES_REQUEST_ORIGIN, run_id, proposer.uri),
                holder.evidence_store,
                False,
                STANDS,
                [],
            )

    def test_invocation_run(self, domain_factory):
        domain = domain_factory(2)
        client, server = domain.organisations.values()
        server.deploy(
            QuoteService(),
            ComponentDescriptor(name="QuoteService", non_repudiation=True),
        )
        run_id = client.invoke_non_repudiably(
            server.uri, "QuoteService", "quote", ["part-1"]
        ).run_id
        resolver = DisputeResolver(client.evidence_verifier)
        for claim_type, token_type, denier in [
            (ClaimType.DENIES_REQUEST_ORIGIN, TokenType.NRO_REQUEST, client),
            (ClaimType.DENIES_REQUEST_RECEIPT, TokenType.NRR_REQUEST, server),
            (ClaimType.DENIES_RESPONSE_ORIGIN, TokenType.NRO_RESPONSE, server),
            (ClaimType.DENIES_RESPONSE_RECEIPT, TokenType.NRR_RESPONSE, client),
        ]:
            for holder in (client, server):
                (record,) = holder.evidence_store.tokens_of_type(
                    run_id, token_type.value
                )
                token = EvidenceToken.from_stored(record)
                assert_verdict(
                    resolver,
                    DisputeClaim(claim_type, run_id, denier.uri),
                    holder.evidence_store,
                    True,
                    REFUTED.format(token=token),
                    [token],
                )
            # The wrong party denying it is not refuted by the other's token.
            wrong = server if denier is client else client
            assert_verdict(
                resolver,
                DisputeClaim(claim_type, run_id, wrong.uri),
                client.evidence_store,
                False,
                STANDS,
                [],
            )


class TestColdAuditWork:
    """One run audited cold on a 5-party ``sqlite:`` domain, counted exactly."""

    def test_revives_seven_tokens_verifies_five_and_uses_no_pool(
        self, tmp_path, monkeypatch
    ):
        uris = [f"urn:org:party{index}" for index in range(5)]
        storage = f"sqlite:{tmp_path / 'evidence.db'}"
        domain = TrustDomain.create(
            uris,
            config=DomainConfig(
                durability=DurabilityConfig(
                    storage=storage, durable_runs=True, durable_state=True
                )
            ),
        )
        domain.share_object("doc", {"v": 0}, uris)
        proposer, auditor = domain.organisation(uris[0]), domain.organisation(uris[1])
        outcome = proposer.propose_update("doc", {"v": 1})
        assert outcome.agreed
        run_id = outcome.run_id
        claims = [
            DisputeClaim(
                ClaimType.DENIES_UPDATE_ORIGIN
                if member == proposer.uri
                else ClaimType.DENIES_AGREED_STATE,
                run_id,
                member,
                "doc",
            )
            for member in uris
            if member != auditor.uri
        ]

        counts = {"revived": 0, "verify_digest": 0, "pool": 0}
        from_dict = EvidenceToken.from_dict.__func__

        def counting_from_dict(cls, payload, revived=False):
            counts["revived"] += 1
            return from_dict(cls, payload, revived)

        scheme = get_scheme("rsa")
        verify_digest = scheme.verify_digest

        def counting_verify_digest(public_key, digest, signature):
            counts["verify_digest"] += 1
            return verify_digest(public_key, digest, signature)

        shared_executor = parallel.shared_executor

        def counting_shared_executor():
            counts["pool"] += 1
            return shared_executor()

        monkeypatch.setattr(EvidenceToken, "from_dict", classmethod(counting_from_dict))
        monkeypatch.setattr(scheme, "verify_digest", counting_verify_digest)
        monkeypatch.setattr(parallel, "shared_executor", counting_shared_executor)

        clear_verification_cache()
        cold_store = EvidenceStore(
            owner=auditor.uri,
            backend=StorageProfile.parse(storage).backend_for(auditor.uri, "evidence"),
        )
        assert len(cold_store.evidence_for_run(run_id)) == 6
        memo = verification_cache_stats()
        resolver = DisputeResolver(auditor.evidence_verifier)
        verdicts = [
            resolver.adjudicate_from_store(claim, cold_store) for claim in claims
        ]

        assert all(verdict.refuted for verdict in verdicts)
        assert counts == {"revived": 7, "verify_digest": 5, "pool": 0}
        assert verification_cache_stats()["hits"] - memo["hits"] == 2
        assert verification_cache_stats()["misses"] - memo["misses"] == 5
        assert parallel.executor_queue_depth() == 0
