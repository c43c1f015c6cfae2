"""Equivalence of the wire transport and the simulated network.

The wire must be a pure *locality* change: splitting a trust domain's
organisations across socket-connected nodes (here: loopback nodes inside one
test process, speaking real TCP) may not change what any protocol run
computes.  At 0% loss a wire deployment must produce

* identical aggregate :class:`NetworkStatistics` counters (statistics are
  sender-side on the wire, so summing every node's counters reproduces the
  simulator's single global view -- byte-for-byte, since both deployments
  run the same virtual clock and byte accounting charges the same canonical
  envelope);
* identical evidence holdings per party (token type / role multisets);
* identical replica state and version on every member.

Separately, killing live connections mid-run must be *recovered* by the
existing retry machinery -- never diverge the replicas: the proposer pays
extra attempts, every member still converges on the agreed state.
"""

from __future__ import annotations

import threading
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import TrustDomain
from repro.clock import SimulatedClock
from repro.core.validators import CallableValidator
from repro.transport.wire import WireTransport

_SETTINGS = settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

OBJECT_ID = "wire-doc"


def _uris(parties):
    return [f"urn:org:weq{i}" for i in range(parties)]


def _evidence_summary(organisation, run_ids):
    counts = Counter()
    for run_id in run_ids:
        for record in organisation.evidence_store.evidence_for_run(run_id):
            counts[(record.token_type, record.role)] += 1
    return counts


def _stats_summary(statistics_list):
    """Aggregate counters across nodes (the simulator is the 1-node case)."""
    totals = {
        "sent": 0,
        "delivered": 0,
        "dropped": 0,
        "duplicated": 0,
        "bytes": 0,
        "per_operation": Counter(),
        "attempts": Counter(),
        "deliveries": Counter(),
    }
    for stats in statistics_list:
        totals["sent"] += stats.messages_sent
        totals["delivered"] += stats.messages_delivered
        totals["dropped"] += stats.messages_dropped
        totals["duplicated"] += stats.messages_duplicated
        totals["bytes"] += stats.bytes_delivered
        totals["per_operation"].update(stats.per_operation)
        totals["attempts"].update(stats.attempts_per_destination)
        totals["deliveries"].update(stats.deliveries_per_destination)
    return totals


def _drive_updates(proposer_org, values):
    run_ids = []
    for value in values:
        outcome = proposer_org.propose_update(OBJECT_ID, {"v": value})
        assert outcome.agreed, outcome.reason
        run_ids.append(outcome.run_id)
    return run_ids


def _simulated_run(parties, values):
    uris = _uris(parties)
    domain = TrustDomain.create(uris, scheme="hmac", clock=SimulatedClock())
    domain.share_object(OBJECT_ID, {"v": 0})
    run_ids = _drive_updates(domain.organisation(uris[0]), values)
    return {
        "stats": _stats_summary([domain.network.statistics]),
        "evidence": {
            uri: _evidence_summary(domain.organisation(uri), run_ids)
            for uri in uris
        },
        "states": {
            uri: (
                domain.organisation(uri).shared_state(OBJECT_ID),
                domain.organisation(uri).shared_version(OBJECT_ID),
            )
            for uri in uris
        },
    }


def _wire_run(parties, split, values):
    uris = _uris(parties)
    local_a, local_b = uris[:split], uris[split:]
    with WireTransport(
        local_parties=local_a,
        await_remote_credentials=False,
        clock=SimulatedClock(),
    ) as ta, WireTransport(
        local_parties=local_b,
        await_remote_credentials=False,
        clock=SimulatedClock(),
    ) as tb:
        da = TrustDomain.create(uris, transport=ta, scheme="hmac")
        db = TrustDomain.create(uris, transport=tb, scheme="hmac")
        ta.introduce_to(tb.host, tb.port)
        tb.introduce_to(ta.host, ta.port)
        da.share_object(OBJECT_ID, {"v": 0})
        db.share_object(OBJECT_ID, {"v": 0})
        run_ids = _drive_updates(da.organisation(uris[0]), values)

        def org(uri):
            return (da if uri in da.organisations else db).organisation(uri)

        return {
            "stats": _stats_summary(
                [da.network.statistics, db.network.statistics]
            ),
            "evidence": {
                uri: _evidence_summary(org(uri), run_ids) for uri in uris
            },
            "states": {
                uri: (org(uri).shared_state(OBJECT_ID), org(uri).shared_version(OBJECT_ID))
                for uri in uris
            },
        }


class TestWireEquivalence:
    @_SETTINGS
    @given(
        parties=st.integers(min_value=3, max_value=4),
        split=st.integers(min_value=1, max_value=2),
        values=st.lists(
            st.integers(min_value=1, max_value=1000),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    )
    def test_loopback_wire_matches_simulator_exactly(self, parties, split, values):
        reference = _simulated_run(parties, values)
        wired = _wire_run(parties, split, values)
        assert wired["stats"] == reference["stats"]
        assert wired["evidence"] == reference["evidence"]
        assert wired["states"] == reference["states"]
        assert wired["stats"]["dropped"] == 0


class TestWireFaultRecovery:
    def test_killed_connection_mid_run_recovers_not_diverges(self):
        uris = _uris(3)
        in_flight = threading.Event()
        release = threading.Event()

        def gate(context):
            # First validation of the faulted run parks here so the test can
            # kill the proposer's connections while the request is on the
            # wire; retried deliveries pass straight through.
            if context.proposed_state.get("v") == 2 and not release.is_set():
                in_flight.set()
                release.wait(timeout=10)
            return True

        with WireTransport(
            local_parties=uris[:1],
            await_remote_credentials=False,
            clock=SimulatedClock(),
        ) as ta, WireTransport(
            local_parties=uris[1:],
            await_remote_credentials=False,
            clock=SimulatedClock(),
        ) as tb:
            da = TrustDomain.create(uris, transport=ta, scheme="hmac")
            db = TrustDomain.create(uris, transport=tb, scheme="hmac")
            ta.introduce_to(tb.host, tb.port)
            tb.introduce_to(ta.host, ta.port)
            validators = [CallableValidator(gate, name="gate")]
            da.share_object(OBJECT_ID, {"v": 0})
            for uri in uris[1:]:
                db.organisation(uri).share_object(
                    OBJECT_ID, {"v": 0}, uris, validators=validators
                )
            proposer = da.organisation(uris[0])
            assert proposer.propose_update(OBJECT_ID, {"v": 1}).agreed

            killer_done = threading.Event()

            def kill_when_in_flight():
                if in_flight.wait(timeout=10):
                    ta.network.pool.kill()
                release.set()
                killer_done.set()

            killer = threading.Thread(target=kill_when_in_flight)
            killer.start()
            outcome = proposer.propose_update(OBJECT_ID, {"v": 2})
            killer.join(timeout=15)
            assert killer_done.is_set()
            assert in_flight.is_set(), "the gated validator never ran"
            assert outcome.agreed, outcome.reason

            # Recovery, not divergence: the kill cost extra attempts but
            # every replica converged on the agreed state.
            stats = da.network.statistics
            failed = stats.failed_attempts_per_destination()
            assert sum(failed.values()) >= 1
            for uri in uris:
                org = (da if uri in da.organisations else db).organisation(uri)
                assert org.shared_state(OBJECT_ID) == {"v": 2}
                assert org.shared_version(OBJECT_ID) == 2
