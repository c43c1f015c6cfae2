"""Partition-exhausted runs degrade gracefully instead of stranding waiters.

When phase 1 reaches *no* peer (a severed partition that outlives every
retry budget), the coordinator must resolve the run not-agreed with an
audited ``run-degraded`` reason and skip the pointless outcome fan-out --
the proposer's blocking call returns, nothing is applied anywhere, and
the degradation is part of the audit record.
"""

from __future__ import annotations

from repro import TrustDomain
from repro.clock import SimulatedClock
from repro.core.sharing import AUDIT_CATEGORY_SHARING

OBJECT_ID = "degraded-doc"
URIS = [f"urn:org:deg{i}" for i in range(3)]


def _severed_domain(**kwargs):
    domain = TrustDomain.create(
        URIS, scheme="hmac", clock=SimulatedClock(), **kwargs
    )
    domain.share_object(OBJECT_ID, {"v": 0})
    for peer in URIS[1:]:
        domain.network.partition.sever(URIS[0], peer)
    return domain


def _degraded_records(org, run_id):
    return [
        record.details
        for record in org.audit_records(
            category=AUDIT_CATEGORY_SHARING, subject=run_id
        )
        if record.details.get("event") == "run-degraded"
    ]


class TestDegradedUpdateRun:
    def test_partitioned_update_resolves_not_agreed_with_audited_reason(self):
        domain = _severed_domain()
        proposer = domain.organisation(URIS[0])
        outcome = proposer.propose_update(OBJECT_ID, {"v": 1})

        # The waiter settled (we are here) and the run did not agree.
        assert not outcome.agreed
        assert "unreachable" in outcome.reason
        degraded = _degraded_records(proposer, outcome.run_id)
        assert degraded == [
            {
                "event": "run-degraded",
                "object_id": OBJECT_ID,
                "reason": "all peers unreachable; suspected partition",
                "peers": URIS[1:],
                "outcome_wave_skipped": True,
            }
        ]
        # The coordinated record names every peer as undelivered.
        coordinated = [
            record.details
            for record in proposer.audit_records(
                category=AUDIT_CATEGORY_SHARING, subject=outcome.run_id
            )
            if record.details.get("event") == "update-coordinated"
        ]
        assert coordinated[0]["undelivered_outcomes"] == URIS[1:]
        # Nothing was applied anywhere; the peers never heard of the run.
        for uri in URIS:
            org = domain.organisation(uri)
            assert org.shared_state(OBJECT_ID) == {"v": 0}
            assert org.shared_version(OBJECT_ID) == 0
        for peer in URIS[1:]:
            assert (
                domain.organisation(peer).evidence_for_run(outcome.run_id)
                == []
            )

    def test_healed_partition_recovers_the_next_run(self):
        domain = _severed_domain()
        proposer = domain.organisation(URIS[0])
        assert not proposer.propose_update(OBJECT_ID, {"v": 1}).agreed
        domain.network.partition.heal_all()
        outcome = proposer.propose_update(OBJECT_ID, {"v": 2})
        assert outcome.agreed, outcome.reason
        for uri in URIS:
            assert domain.organisation(uri).shared_state(OBJECT_ID) == {"v": 2}

    def test_reachable_minority_still_gets_the_outcome_wave(self):
        # Only one peer severed: phase 1 fails for it, succeeds for the
        # other; the run is vetoed but NOT degraded -- the reachable peer
        # must still receive the not-agreed outcome.
        domain = TrustDomain.create(URIS, scheme="hmac", clock=SimulatedClock())
        domain.share_object(OBJECT_ID, {"v": 0})
        domain.network.partition.sever(URIS[0], URIS[1])
        proposer = domain.organisation(URIS[0])
        outcome = proposer.propose_update(OBJECT_ID, {"v": 1})
        assert not outcome.agreed
        assert _degraded_records(proposer, outcome.run_id) == []
        # The reachable peer holds the proposal and the outcome.
        reachable = domain.organisation(URIS[2]).evidence_for_run(
            outcome.run_id
        )
        assert len(reachable) > 0

    def test_degraded_async_run_settles_its_future(self):
        domain = _severed_domain()
        proposer = domain.organisation(URIS[0])
        future = proposer.controller.propose_update_async(OBJECT_ID, {"v": 1})
        outcome = future.result(timeout=30)
        assert not outcome.agreed
        assert _degraded_records(proposer, outcome.run_id)


class TestDegradedMembershipRun:
    def test_partitioned_disconnect_degrades_not_strands(self):
        domain = _severed_domain()
        proposer = domain.organisation(URIS[0])
        outcome = proposer.controller.disconnect_member(OBJECT_ID, URIS[2])
        assert not outcome.agreed
        degraded = _degraded_records(proposer, outcome.run_id)
        assert len(degraded) == 1
        assert degraded[0]["peers"] == URIS[1:]
        # Membership unchanged everywhere.
        assert sorted(proposer.controller.members(OBJECT_ID)) == sorted(URIS)
