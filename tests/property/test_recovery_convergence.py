"""Healing-path convergence: an outcome-excluded peer always catches up.

One fixture, three independent healing mechanisms, none of them configured.  A 3-party domain agrees
an update whose outcome wave is severed to the last peer right at the
commit barrier -- every member decided (agreement is unanimous), the
proposer and the middle responder apply the new version, and the excluded
peer is left holding an accepted decision with no outcome:

* **re-delivery** -- the proposer's queued outcome wave is pushed by the
  retry scheduler once the link heals;
* **resync** -- the excluded peer anti-entropy-pulls the signed outcome
  records it missed (the restart-time catch-up path, driven here without a
  restart);
* **orphan GC + late outcome** -- the excluded peer's proposal-age expiry
  garbage-collects its stranded responder run first, and the re-delivered
  outcome still applies afterwards (idempotent, version-guarded).

Each path must leave every replica at the same version and state with
identical per-run evidence multisets, and the three paths must agree with
*each other* on the final evidence shape -- a peer healed by resync is
indistinguishable from one healed by the wave itself.
"""

from __future__ import annotations

from collections import Counter

from repro.clock import SimulatedClock
from repro.core.config import DomainConfig, DurabilityConfig, TransportConfig
from repro.core.sharing import set_run_fault_injector
from repro.core.trust_domain import TrustDomain

URIS = ["urn:org:heal0", "urn:org:heal1", "urn:org:heal2"]
PROPOSER, RESPONDER, EXCLUDED = URIS
OBJECT_ID = "healing-doc"


def _build(orphan_timeout: float = 10_000.0) -> TrustDomain:
    return TrustDomain.create(
        URIS,
        scheme="hmac",
        clock=SimulatedClock(),
        orphan_run_timeout=orphan_timeout,
    )


def _excluded_wave(domain):
    """Agree v1 everywhere, then agree v2 with the outcome severed to the
    last peer at the commit barrier.  Returns the severed run's outcome."""
    domain.share_object(OBJECT_ID, {"n": 0})
    proposer = domain.organisation(PROPOSER)
    assert proposer.propose_update(OBJECT_ID, {"n": 1}).agreed

    fired = []

    def sever(stage, run):
        if stage == "after-journal-committed" and not fired:
            fired.append(run.run_id)
            domain.network.partition.sever(PROPOSER, EXCLUDED)

    set_run_fault_injector(sever)
    try:
        outcome = proposer.propose_update(OBJECT_ID, {"n": 2})
    finally:
        set_run_fault_injector(None)
    assert outcome.agreed
    assert fired == [outcome.run_id]
    assert proposer.shared_version(OBJECT_ID) == 2
    assert domain.organisation(RESPONDER).shared_version(OBJECT_ID) == 2
    assert domain.organisation(EXCLUDED).shared_version(OBJECT_ID) == 1
    assert proposer.controller.pending_redeliveries() == [outcome.run_id]
    return outcome


def _evidence(organisation, run_id):
    return Counter(
        f"{record.token_type}/{record.role}"
        for record in organisation.evidence_store.evidence_for_run(run_id)
    )


def _events(organisation, run_id):
    return {
        record.details.get("event")
        for record in organisation.audit_records(subject=run_id)
    }


def _snapshot(domain, run_id):
    """Per-replica versions, states and run evidence -- the convergence view."""
    orgs = {uri: domain.organisation(uri) for uri in URIS}
    return {
        "versions": {uri: org.shared_version(OBJECT_ID) for uri, org in orgs.items()},
        "states": {uri: org.shared_state(OBJECT_ID) for uri, org in orgs.items()},
        "evidence": {uri: _evidence(org, run_id) for uri, org in orgs.items()},
    }


def _assert_converged(domain, run_id):
    snapshot = _snapshot(domain, run_id)
    assert set(snapshot["versions"].values()) == {2}, snapshot["versions"]
    assert (
        len({repr(state) for state in snapshot["states"].values()}) == 1
    ), snapshot["states"]
    # Both responders saw the same run the same way, however it reached them.
    assert snapshot["evidence"][RESPONDER] == snapshot["evidence"][EXCLUDED]
    return snapshot


# -- path 1: scheduler-driven outcome re-delivery ------------------------------------


def _heal_via_redelivery(domain, outcome):
    domain.network.partition.heal_all()
    proposer = domain.organisation(PROPOSER)
    domain.retry_scheduler.drive_until(
        lambda: not proposer.controller.pending_redeliveries()
    )


def test_excluded_peer_converges_via_redelivery():
    domain = _build()
    outcome = _excluded_wave(domain)
    excluded = domain.organisation(EXCLUDED)
    assert excluded.controller.pending_orphan_watches() == [outcome.run_id]

    _heal_via_redelivery(domain, outcome)

    _assert_converged(domain, outcome.run_id)
    proposer_events = _events(domain.organisation(PROPOSER), outcome.run_id)
    assert "outcome-redelivery-scheduled" in proposer_events
    assert "outcome-redelivered" in proposer_events
    assert "outcome-redelivery-complete" in proposer_events
    # The delivered outcome cleared the excluded peer's orphan watch; no
    # timer leaks past convergence.
    assert excluded.controller.pending_orphan_watches() == []
    assert domain.retry_scheduler.pending_timers() == 0


# -- path 2: anti-entropy resync (the restart-time catch-up, driven inline) ----------


def _heal_via_resync(domain, outcome):
    domain.network.partition.heal_all()
    proposer = domain.organisation(PROPOSER)
    excluded = domain.organisation(EXCLUDED)
    assert proposer.shared_version(OBJECT_ID) == 2
    applied = 0
    records = proposer.controller.resync_records(
        OBJECT_ID, excluded.shared_version(OBJECT_ID)
    )
    for record in records:
        if excluded.controller.apply_resync_record(dict(record)):
            applied += 1
    assert applied == 1


def test_excluded_peer_converges_via_resync():
    domain = _build()
    outcome = _excluded_wave(domain)
    proposer = domain.organisation(PROPOSER)
    excluded = domain.organisation(EXCLUDED)

    _heal_via_resync(domain, outcome)

    _assert_converged(domain, outcome.run_id)
    assert "resync-applied" in _events(excluded, outcome.run_id)
    # Applying the resynced outcome also cleared the stranded orphan watch.
    assert excluded.controller.pending_orphan_watches() == []

    # The queued re-delivery is now obsolete; once the object advances past
    # the severed run's version it must retire as superseded without
    # re-sending (the excluded peer's evidence stays exactly as resynced).
    assert proposer.controller.pending_redeliveries() == [outcome.run_id]
    assert proposer.propose_update(OBJECT_ID, {"n": 3}).agreed
    evidence_before = _evidence(excluded, outcome.run_id)
    domain.retry_scheduler.drive_until(
        lambda: not proposer.controller.pending_redeliveries()
    )
    assert "outcome-redelivery-superseded" in _events(proposer, outcome.run_id)
    assert _evidence(excluded, outcome.run_id) == evidence_before
    assert domain.retry_scheduler.pending_timers() == 0


# -- path 3: orphan GC first, the late outcome still applies -------------------------


def _heal_via_orphan_gc(domain, outcome):
    proposer = domain.organisation(PROPOSER)
    excluded = domain.organisation(EXCLUDED)
    # The partition stays severed: re-delivery attempts keep failing and
    # the excluded peer's proposal-age expiry wins the race.
    domain.retry_scheduler.drive_until(
        lambda: not excluded.controller.pending_orphan_watches()
    )
    assert "orphan-run-expired" in _events(excluded, outcome.run_id)
    assert excluded.shared_version(OBJECT_ID) == 1
    # Now heal: the still-queued wave arrives late, after the responder-run
    # state is gone, and must apply idempotently anyway.
    domain.network.partition.heal_all()
    domain.retry_scheduler.drive_until(
        lambda: not proposer.controller.pending_redeliveries()
    )


def test_orphan_gc_then_late_outcome_converges():
    domain = _build(orphan_timeout=5.0)
    outcome = _excluded_wave(domain)
    excluded = domain.organisation(EXCLUDED)

    _heal_via_orphan_gc(domain, outcome)

    _assert_converged(domain, outcome.run_id)
    events = _events(excluded, outcome.run_id)
    assert "orphan-run-expired" in events
    # The late outcome applied: its record, not an audit, says so.
    assert excluded.state_store.outcome_record(OBJECT_ID, 2)["run_id"] == outcome.run_id
    assert "outcome-received" not in events
    assert excluded.controller.pending_orphan_watches() == []
    assert domain.retry_scheduler.pending_timers() == 0


# -- the three paths are indistinguishable after the fact ----------------------------


def test_healing_paths_agree_on_final_state_and_evidence():
    snapshots = {}
    for name, orphan_timeout, heal in (
        ("redelivery", 10_000.0, _heal_via_redelivery),
        ("resync", 10_000.0, _heal_via_resync),
        ("orphan-gc", 5.0, _heal_via_orphan_gc),
    ):
        domain = _build(orphan_timeout=orphan_timeout)
        outcome = _excluded_wave(domain)
        heal(domain, outcome)
        snapshots[name] = _snapshot(domain, outcome.run_id)
    reference = snapshots["redelivery"]
    assert snapshots["resync"] == reference
    assert snapshots["orphan-gc"] == reference


# -- regression: orphan expiry racing a late outcome application ---------------------


def test_orphan_expiry_cancels_while_outcome_application_in_progress():
    """An expiry firing mid-apply must cancel (audited), never abort.

    White-box re-creation of the race the application marker closes: the
    outcome of a stranded run starts applying on one thread exactly as the
    proposal-age expiry fires on another.
    """
    domain = _build()
    outcome = _excluded_wave(domain)
    excluded = domain.organisation(EXCLUDED)
    controller = excluded.controller
    assert controller.pending_orphan_watches() == [outcome.run_id]

    with controller._outcome_application(outcome.run_id):  # noqa: SLF001
        # Entering the application popped the timer under the same lock
        # hold that set the marker -- the expiry below is the scheduler
        # firing concurrently, and must take the cancel path.
        controller._expire_orphan_run(  # noqa: SLF001
            outcome.run_id, PROPOSER, OBJECT_ID
        )
        events = _events(excluded, outcome.run_id)
        assert "orphan-expiry-cancelled" in events
        assert "orphan-run-expired" not in events
    assert controller.pending_orphan_watches() == []

    # The run was not aborted by the cancelled expiry: the late wave still
    # heals the replica as usual.
    _heal_via_redelivery(domain, outcome)
    _assert_converged(domain, outcome.run_id)


# -- each recovery feature acts on its own: nothing has to be switched on ------------


def _domain_with(durability: DurabilityConfig) -> TrustDomain:
    return TrustDomain.create(
        URIS,
        config=DomainConfig(
            scheme="hmac",
            transport=TransportConfig(clock=SimulatedClock()),
            durability=durability,
        ),
    )


def test_a_default_domain_redelivers_and_converges():
    domain = _domain_with(DurabilityConfig())
    outcome = _excluded_wave(domain)

    _heal_via_redelivery(domain, outcome)

    _assert_converged(domain, outcome.run_id)
    events = [
        record.details.get("event")
        for record in domain.organisation(PROPOSER).audit_records(
            subject=outcome.run_id
        )
    ]
    assert events.index("outcome-redelivery-scheduled") < events.index(
        "outcome-redelivery-complete"
    )
    assert domain.retry_scheduler.pending_timers() == 0


def test_orphan_run_timeout_alone_expires_an_orphaned_proposal():
    domain = _domain_with(DurabilityConfig(orphan_run_timeout=5.0))
    domain.share_object(OBJECT_ID, {"n": 0})

    class ProposerDied(Exception):
        pass

    def die_at_the_barrier(stage, run):
        if stage == "after-journal-committed":
            raise ProposerDied(run.run_id)

    set_run_fault_injector(die_at_the_barrier)
    try:
        future = domain.organisation(PROPOSER).propose_update_async(
            OBJECT_ID, {"n": 1}
        )
    finally:
        set_run_fault_injector(None)
    assert isinstance(future.error, ProposerDied)
    responders = [domain.organisation(uri) for uri in (RESPONDER, EXCLUDED)]
    for responder in responders:
        assert responder.controller.pending_orphan_watches() == [future.run_id]

    # The outcome never comes; only virtual time passing can end the wait.
    domain.retry_scheduler.drive_until(
        lambda: not any(r.controller.pending_orphan_watches() for r in responders)
    )
    assert domain.network.clock.now() >= 5.0
    for responder in responders:
        assert "orphan-run-expired" in _events(responder, future.run_id)
        assert responder.shared_version(OBJECT_ID) == 0
    assert domain.retry_scheduler.pending_timers() == 0
