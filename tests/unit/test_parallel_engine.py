"""Tests for the parallel protocol engine.

Covers the pluggable network dispatch strategies (sequential/parallel
equivalence, duplicate accounting, nested fan-outs), the DSA nonce pool and
the batched evidence verification.
"""

import hashlib
import threading
import time

import pytest

from repro import FaultModel, TokenType, TrustDomain
from repro.core.evidence import EvidenceBuilder, EvidenceToken, EvidenceVerifier
from repro.crypto import dsa
from repro.crypto.signature import Signer, generate_keypair
from repro.errors import EvidenceVerificationError
from repro.transport.network import (
    ParallelDispatch,
    SequentialDispatch,
    SimulatedNetwork,
)


def statistics_dict(network):
    statistics = network.statistics.snapshot()
    return {
        "messages_sent": statistics.messages_sent,
        "messages_delivered": statistics.messages_delivered,
        "messages_dropped": statistics.messages_dropped,
        "messages_duplicated": statistics.messages_duplicated,
        "bytes_delivered": statistics.bytes_delivered,
        "per_operation": dict(statistics.per_operation),
    }


class TestDispatchStrategies:
    def test_parallel_batch_runs_handlers_concurrently(self):
        network = SimulatedNetwork(dispatch=ParallelDispatch())
        barrier = threading.Barrier(3, timeout=5.0)

        def handler(message):
            barrier.wait()  # only passes if all three run at once
            return message.payload

        for index in range(3):
            network.register(f"urn:dst{index}", handler)
        results = network.send_batch(
            "urn:src", [(f"urn:dst{index}", "op", index) for index in range(3)]
        )
        assert [outcome.result for outcome in results] == [0, 1, 2]

    def test_parallel_batch_isolates_handler_failures(self):
        network = SimulatedNetwork(dispatch=ParallelDispatch())
        network.register("urn:good", lambda message: "ok")

        def failing(message):
            raise RuntimeError("handler exploded")

        network.register("urn:bad", failing)
        results = network.send_batch(
            "urn:src", [("urn:good", "op", 1), ("urn:bad", "op", 2), ("urn:good", "op", 3)]
        )
        assert results[0].result == "ok"
        assert isinstance(results[1].error, RuntimeError)
        assert results[2].result == "ok"

    def test_nested_fanout_from_handler_does_not_deadlock(self):
        network = SimulatedNetwork(dispatch=ParallelDispatch())
        network.register("urn:leaf", lambda message: "leaf")

        def fanning_handler(message):
            inner = network.send_batch(
                message.destination, [("urn:leaf", "op", i) for i in range(4)]
            )
            return [outcome.result for outcome in inner]

        network.register("urn:mid", fanning_handler)
        results = network.send_batch(
            "urn:src", [("urn:mid", "op", i) for i in range(8)]
        )
        assert all(outcome.result == ["leaf"] * 4 for outcome in results)

    def test_nested_fanout_with_private_pool_does_not_deadlock(self):
        # A private pool small enough that every worker is busy with an
        # outer entry: nested fan-outs must run inline on the workers, not
        # queue behind them (which would deadlock permanently).
        dispatch = ParallelDispatch(max_workers=2)
        network = SimulatedNetwork(dispatch=dispatch)
        network.register("urn:leaf", lambda message: "leaf")

        def fanning_handler(message):
            inner = network.send_batch(
                message.destination, [("urn:leaf", "op", i) for i in range(3)]
            )
            return [outcome.result for outcome in inner]

        network.register("urn:mid", fanning_handler)
        outcomes = []
        worker = threading.Thread(
            target=lambda: outcomes.extend(
                network.send_batch("urn:src", [("urn:mid", "op", i) for i in range(4)])
            )
        )
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "nested fan-out deadlocked the private pool"
        assert all(outcome.result == ["leaf"] * 3 for outcome in outcomes)
        dispatch.close()

    def test_set_dispatch_switches_strategy(self):
        network = SimulatedNetwork()
        assert isinstance(network.dispatch, SequentialDispatch)
        network.set_dispatch(ParallelDispatch())
        assert network.dispatch.name == "parallel"


class TestDuplicateAccounting:
    def test_send_accounts_duplicate_before_dispatch(self):
        network = SimulatedNetwork(FaultModel(duplicate_probability=1.0, seed=b"dup"))
        observed = []

        def handler(message):
            observed.append(network.statistics.messages_duplicated)

        network.register("urn:dst", handler)
        network.send("urn:src", "urn:dst", "op", {})
        # The handler ran twice, and the duplicate was already accounted
        # before the *first* dispatch.
        assert observed == [1, 1]
        assert network.statistics.messages_duplicated == 1

    @pytest.mark.parametrize("dispatch", [SequentialDispatch(), ParallelDispatch()])
    def test_send_batch_accounts_duplicates_like_send(self, dispatch):
        def run(use_batch):
            network = SimulatedNetwork(
                FaultModel(duplicate_probability=1.0, seed=b"dup"), dispatch=dispatch
            )
            calls = []
            network.register("urn:dst", lambda message: calls.append(message.message_id))
            if use_batch:
                network.send_batch("urn:src", [("urn:dst", "op", {})] * 2)
            else:
                network.send("urn:src", "urn:dst", "op", {})
                network.send("urn:src", "urn:dst", "op", {})
            return len(calls), statistics_dict(network)

        batch_calls, batch_statistics = run(use_batch=True)
        send_calls, send_statistics = run(use_batch=False)
        assert batch_calls == send_calls == 4  # two messages, each duplicated
        assert batch_statistics == send_statistics
        assert batch_statistics["messages_duplicated"] == 2


class TestDispatchEquivalence:
    """Parallel dispatch must be observationally equivalent to sequential."""

    PARTIES = 4
    UPDATES = 3

    def run_sharing_scenario(self, dispatch, latency_seconds=0.0):
        fault_model = FaultModel(
            drop_probability=0.08,
            duplicate_probability=0.08,
            latency_seconds=latency_seconds,
            seed=b"equivalence",
        )
        uris = [f"urn:eq:party{i}" for i in range(self.PARTIES)]
        domain = TrustDomain.create(uris, fault_model=fault_model, dispatch=dispatch)
        domain.share_object("doc", {"revision": 0})
        organisations = [domain.organisation(uri) for uri in uris]
        for revision in range(1, self.UPDATES + 1):
            proposer = organisations[revision % self.PARTIES]
            outcome = proposer.propose_update("doc", {"revision": revision})
            assert outcome.agreed
        final_states = [org.shared_state("doc") for org in organisations]
        final_versions = [org.shared_version("doc") for org in organisations]
        statistics = statistics_dict(domain.network)
        statistics["total_latency"] = domain.network.statistics.total_latency
        return statistics, final_states, final_versions

    def test_statistics_and_state_identical_under_both_strategies(self):
        sequential = self.run_sharing_scenario(SequentialDispatch())
        parallel = self.run_sharing_scenario(ParallelDispatch())
        assert sequential[0] == parallel[0]  # full NetworkStatistics equality
        assert sequential[1] == parallel[1]  # every replica's final state
        assert sequential[2] == parallel[2]  # every replica's version

    def test_latency_accounting_identical_under_both_strategies(self):
        # With nonzero link latency, concurrent handlers observe the shared
        # virtual clock in nondeterministic order, so token timestamps (and
        # with them a few bytes of float repr inside token bodies) are not
        # reproducible run-to-run -- that is inherent to concurrent
        # timestamping, not a dispatch artefact.  Everything the network
        # itself accounts -- message counts, drops, duplicates, per-operation
        # tallies and the latency total drawn in admission order -- must
        # still match exactly; byte totals may differ only by timestamp
        # digits.
        sequential = self.run_sharing_scenario(
            SequentialDispatch(), latency_seconds=0.002
        )
        parallel = self.run_sharing_scenario(
            ParallelDispatch(), latency_seconds=0.002
        )
        sequential_bytes = sequential[0].pop("bytes_delivered")
        parallel_bytes = parallel[0].pop("bytes_delivered")
        assert sequential[0] == parallel[0]
        assert abs(sequential_bytes - parallel_bytes) < 500
        assert sequential[1] == parallel[1]
        assert sequential[2] == parallel[2]


class TestNoncePool:
    def setup_method(self):
        dsa.disable_nonce_pools()

    def teardown_method(self):
        dsa.disable_nonce_pools()

    def test_pooled_signatures_verify_and_are_unique(self):
        scheme = dsa.DSAScheme()
        keypair = scheme.generate_keypair(p_bits=512)
        digest = hashlib.sha256(b"pooled").digest()
        dsa.enable_nonce_pools(capacity=32, background=False)
        pool = dsa.nonce_pool_for(
            keypair.private.params["p"],
            keypair.private.params["q"],
            keypair.private.params["g"],
        )
        pool.precompute(8)
        signatures = [scheme.sign_digest(keypair.private, digest) for _ in range(8)]
        assert all(
            scheme.verify_digest(keypair.public, digest, signature)
            for signature in signatures
        )
        assert len(set(signatures)) == 8  # fresh nonce per signature
        assert pool.stats()["hits"] == 8

    def test_empty_pool_falls_back_synchronously(self):
        scheme = dsa.DSAScheme()
        keypair = scheme.generate_keypair(p_bits=512)
        digest = hashlib.sha256(b"fallback").digest()
        dsa.enable_nonce_pools(capacity=4, background=False)
        signature = scheme.sign_digest(keypair.private, digest)
        assert scheme.verify_digest(keypair.public, digest, signature)
        pool = dsa.nonce_pool_for(
            keypair.private.params["p"],
            keypair.private.params["q"],
            keypair.private.params["g"],
        )
        assert pool.stats()["misses"] == 1

    def test_background_refill_replenishes_pool(self):
        params = dsa.generate_domain_parameters(p_bits=512, q_bits=160)
        pool = dsa.NoncePool(*params, capacity=8, background=True)
        deadline = time.time() + 10.0
        while pool.size() < 8 and time.time() < deadline:
            time.sleep(0.01)
        assert pool.size() == 8
        for _ in range(6):
            pool.take()
        deadline = time.time() + 10.0
        while pool.size() < 8 and time.time() < deadline:
            time.sleep(0.01)
        assert pool.size() == 8
        assert pool.stats()["misses"] == 0
        pool.close()

    def test_disabled_pools_restore_deterministic_signing(self):
        scheme = dsa.DSAScheme()
        keypair = scheme.generate_keypair(p_bits=512)
        digest = hashlib.sha256(b"deterministic").digest()
        reference = scheme.sign_digest(keypair.private, digest)
        dsa.enable_nonce_pools(capacity=4, background=False)
        pooled = scheme.sign_digest(keypair.private, digest)
        dsa.disable_nonce_pools()
        assert scheme.sign_digest(keypair.private, digest) == reference
        assert scheme.verify_digest(keypair.public, digest, pooled)


def build_verifier_with_tokens(count):
    keypair = generate_keypair("rsa")
    builder = EvidenceBuilder("urn:org:issuer", Signer(keypair.private))
    verifier = EvidenceVerifier(pinned_keys={"urn:org:issuer": keypair.public})
    tokens = [
        builder.build(
            token_type=TokenType.NR_DECISION,
            run_id="run-1",
            step=2,
            recipient="urn:org:peer",
            payload={"decision": index},
        )
        for index in range(count)
    ]
    return verifier, tokens


class TestVerifyAll:
    def test_all_valid_tokens_pass(self):
        verifier, tokens = build_verifier_with_tokens(4)
        verdicts = verifier.verify_all(
            (token, {"expected_type": TokenType.NR_DECISION, "expected_run_id": "run-1"})
            for token in tokens
        )
        assert verdicts == [None] * 4

    def test_invalid_token_reported_in_its_slot(self):
        verifier, tokens = build_verifier_with_tokens(3)
        tampered = EvidenceToken.from_dict(
            {**tokens[1].to_dict(), "run_id": "run-forged"}
        )
        verdicts = verifier.verify_all(
            (token, {"expected_run_id": "run-1"})
            for token in [tokens[0], tampered, tokens[2]]
        )
        assert verdicts[0] is None
        assert isinstance(verdicts[1], EvidenceVerificationError)  # forged run id
        assert verdicts[2] is None

    def test_infrastructure_failure_propagates(self):
        verifier, tokens = build_verifier_with_tokens(2)
        checked = []

        class KeyServiceDown(RuntimeError):
            pass

        def key_for(party):
            checked.append(party)
            raise KeyServiceDown(party)

        verifier.key_for = key_for
        with pytest.raises(KeyServiceDown):
            verifier.verify_all((token, {}) for token in tokens)
        assert checked == ["urn:org:issuer"]  # never misread as "token invalid"
