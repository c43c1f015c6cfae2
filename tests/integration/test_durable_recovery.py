"""Crash-recovery integration tests for durable runs (in-process crashes).

The run journal is written *before* each phase's side effects dispatch, so
an injected crash right after a journal write is the worst case for that
phase: the record exists but none of its consequences do.  These tests
crash a proposer at each stage, replay recovery, and check the convergence
contract -- a run that never passed the commit barrier aborts everywhere,
a run that passed it resumes to completion everywhere, and doing either
twice changes nothing.  The wire-level SIGKILL variant of these scenarios
lives in ``tests/property/test_durable_runs_wire.py``.
"""

from collections import Counter

import pytest

from repro import TrustDomain
from repro.clock import SimulatedClock
from repro.core.sharing import set_run_fault_injector
from repro.crypto.signature import get_scheme
from repro.errors import PersistenceError
from repro.persistence.run_journal import PHASE_COMMITTED, PHASE_PROPOSED
from repro.persistence.storage import InMemoryBackend

URIS = ["urn:org:a", "urn:org:b", "urn:org:c"]
OBJECT_ID = "contract"


class SimulatedCrash(Exception):
    """Stands in for the process dying at the injected stage."""


@pytest.fixture(autouse=True)
def _clear_fault_injector():
    yield
    set_run_fault_injector(None)


def crash_once_at(stage):
    """Install an injector that raises at ``stage`` the first time only."""
    fired = []

    def injector(at_stage, run):
        if at_stage == stage and not fired:
            fired.append(run.run_id)
            raise SimulatedCrash(stage)

    set_run_fault_injector(injector)
    return fired


def durable_domain(**overrides):
    options = dict(durable_runs=True)
    options.update(overrides)
    domain = TrustDomain.create(URIS, **options)
    domain.share_object(OBJECT_ID, {"clauses": []})
    return domain


def versions(domain):
    return [
        domain.organisation(uri).controller.get_version(OBJECT_ID) for uri in URIS
    ]


def states(domain):
    return [
        domain.organisation(uri).controller.get_state(OBJECT_ID) for uri in URIS
    ]


def evidence_summary(org, run_id):
    return Counter(
        (stored.token_type, stored.role) for stored in org.evidence_for_run(run_id)
    )


class TestRecoveryNoOpCases:
    def test_recovery_with_empty_journal_is_a_noop(self):
        domain = durable_domain()
        assert domain.recover_runs() == {uri: {} for uri in URIS}
        # The domain is fully usable afterwards.
        outcome = domain.organisation(URIS[0]).propose_update(
            OBJECT_ID, {"clauses": ["delivery"]}
        )
        assert outcome.agreed
        assert versions(domain) == [1, 1, 1]

    def test_recovery_skips_settled_runs(self):
        domain = durable_domain()
        proposer = domain.organisation(URIS[0])
        outcome = proposer.propose_update(OBJECT_ID, {"clauses": ["delivery"]})
        assert outcome.agreed
        journaled = proposer.controller.run_journal.run(outcome.run_id)
        assert not journaled.open
        assert domain.recover_runs() == {uri: {} for uri in URIS}


class TestCrashBeforeCommitBarrier:
    def test_crash_after_proposed_record_recovers_by_aborting(self):
        domain = durable_domain()
        proposer = domain.organisation(URIS[0])
        crash_once_at("after-journal-proposed")
        with pytest.raises(SimulatedCrash):
            proposer.propose_update(OBJECT_ID, {"clauses": ["delivery"]})

        # The crash landed before the fan-out: no peer saw anything.
        journaled = proposer.controller.run_journal.open_runs()
        assert [run.phase for run in journaled] == [PHASE_PROPOSED]
        run_id = journaled[0].run_id

        recovered = domain.recover_runs()
        assert recovered[URIS[0]] == {run_id: "aborted"}
        assert not proposer.controller.run_journal.run(run_id).open
        # Nothing was applied anywhere; the next proposal converges normally.
        assert versions(domain) == [0, 0, 0]
        outcome = proposer.propose_update(OBJECT_ID, {"clauses": ["payment"]})
        assert outcome.agreed
        assert versions(domain) == [1, 1, 1]
        assert len({repr(state) for state in states(domain)}) == 1

    def test_abort_notices_are_tolerated_for_unknown_runs(self):
        # Peers never saw the crashed proposal, so the recovery abort notice
        # names a run they have no state for; it must be absorbed silently.
        domain = durable_domain()
        proposer = domain.organisation(URIS[0])
        crash_once_at("after-journal-proposed")
        with pytest.raises(SimulatedCrash):
            proposer.propose_update(OBJECT_ID, {"clauses": ["delivery"]})
        (run_id,) = [run.run_id for run in proposer.controller.run_journal.open_runs()]
        domain.recover_runs()
        for uri in URIS[1:]:
            received = domain.organisation(uri).audit_records(subject=run_id)
            assert any(
                record.details.get("event") == "run-abort-received"
                for record in received
            )


class TestCrashAfterCommitBarrier:
    def test_crash_after_committed_record_recovers_by_resuming(self):
        domain = durable_domain()
        proposer = domain.organisation(URIS[0])
        crash_once_at("after-journal-committed")
        with pytest.raises(SimulatedCrash):
            proposer.propose_update(OBJECT_ID, {"clauses": ["delivery"]})

        # Peers validated and decided, but no outcome left the proposer:
        # responders hold half-open runs, the proposer holds version 0.
        journaled = proposer.controller.run_journal.open_runs()
        assert [run.phase for run in journaled] == [PHASE_COMMITTED]
        run_id = journaled[0].run_id
        assert proposer.controller.get_version(OBJECT_ID) == 0

        recovered = domain.recover_runs()
        assert recovered[URIS[0]] == {run_id: "resumed"}
        assert versions(domain) == [1, 1, 1]
        assert len({repr(state) for state in states(domain)}) == 1
        assert states(domain)[0] == {"clauses": ["delivery"]}

        # Convergence is evidential, not just state-level: both responders
        # hold identical evidence multisets for the recovered run.
        b, c = (domain.organisation(uri) for uri in URIS[1:])
        assert evidence_summary(b, run_id) == evidence_summary(c, run_id)
        assert evidence_summary(b, run_id)  # non-empty

    def test_failed_local_apply_after_commit_stays_committed_and_recovers(self):
        """A run that fails *after* the barrier must stay recoverable.

        The proposer's local apply raises once (a storage error): both
        peers already applied the outcome, so journaling the run as settled
        would strand the proposer one version behind for good.
        """
        domain = durable_domain()
        proposer = domain.organisation(URIS[0])
        controller = proposer.controller
        apply_update, failures = controller._apply_update, []  # noqa: SLF001

        def failing_once(*args, **kwargs):
            if not failures:
                failures.append(args)
                raise PersistenceError("state store unavailable")
            return apply_update(*args, **kwargs)

        controller._apply_update = failing_once  # noqa: SLF001
        with pytest.raises(PersistenceError, match="state store unavailable"):
            proposer.propose_update(OBJECT_ID, {"clauses": ["delivery"]})
        assert versions(domain) == [0, 1, 1]
        journaled = controller.run_journal.open_runs()
        assert [run.phase for run in journaled] == [PHASE_COMMITTED]

        recovered = domain.recover_runs()
        assert recovered[URIS[0]] == {journaled[0].run_id: "resumed"}
        assert versions(domain) == [1, 1, 1]
        digests = {
            domain.organisation(uri).controller.state_digest(OBJECT_ID)
            for uri in URIS
        }
        assert len(digests) == 1
        assert domain.recover_runs() == {uri: {} for uri in URIS}

    def test_double_recovery_is_idempotent(self):
        domain = durable_domain()
        proposer = domain.organisation(URIS[0])
        crash_once_at("after-journal-committed")
        with pytest.raises(SimulatedCrash):
            proposer.propose_update(OBJECT_ID, {"clauses": ["delivery"]})
        first = domain.recover_runs()
        assert list(first[URIS[0]].values()) == ["resumed"]
        run_id = next(iter(first[URIS[0]]))

        snapshot = (versions(domain), states(domain))
        summaries = [
            evidence_summary(domain.organisation(uri), run_id) for uri in URIS
        ]
        second = domain.recover_runs()
        assert second == {uri: {} for uri in URIS}
        assert (versions(domain), states(domain)) == snapshot
        assert [
            evidence_summary(domain.organisation(uri), run_id) for uri in URIS
        ] == summaries

    def test_resumed_membership_run_applies_idempotently(self):
        domain = durable_domain()
        proposer = domain.organisation(URIS[0])
        crash_once_at("after-journal-committed")
        with pytest.raises(SimulatedCrash):
            proposer.controller.disconnect_member(OBJECT_ID, URIS[2])
        recovered = domain.recover_runs()
        assert list(recovered[URIS[0]].values()) == ["resumed"]
        assert URIS[2] not in proposer.controller.members(OBJECT_ID)
        assert URIS[2] not in domain.organisation(URIS[1]).controller.members(
            OBJECT_ID
        )
        # Recover again: membership application must not error or flap.
        assert domain.recover_runs() == {uri: {} for uri in URIS}
        assert URIS[2] not in proposer.controller.members(OBJECT_ID)


class TestRestartedOrganisationRecovers:
    def test_restarted_proposer_with_persisted_identity_resumes(self):
        """A brand-new Organisation over the old journal/evidence recovers.

        This is the in-process analogue of the SIGKILL chaos suite: the
        proposer object is discarded and rebuilt from its durable pieces
        (keypair, journal backend, evidence backend) on the same network.
        """
        journal_backends = {uri: InMemoryBackend() for uri in URIS}
        evidence_backends = {uri: InMemoryBackend() for uri in URIS}
        domain = durable_domain(
            run_journal_backend_factory=journal_backends.__getitem__,
            evidence_backend_factory=evidence_backends.__getitem__,
            keypair_factory=lambda uri: get_scheme("rsa").generate_keypair(),
        )
        old = domain.organisation(URIS[0])
        crash_once_at("after-journal-committed")
        with pytest.raises(SimulatedCrash):
            old.propose_update(OBJECT_ID, {"clauses": ["delivery"]})

        from repro.core.organisation import Organisation

        restarted = Organisation(
            uri=URIS[0],
            network=domain.network,
            ca=domain.certificate_authority,
            keypair=old.keypair,
            durable_runs=True,
            run_journal_backend=journal_backends[URIS[0]],
            evidence_backend=evidence_backends[URIS[0]],
        )
        domain.organisations[URIS[0]] = restarted
        for uri in URIS[1:]:
            peer = domain.organisation(uri)
            restarted.trust(peer)
            peer.trust(restarted)
        # The restarted process re-registers its shared objects from
        # configuration, then replays the journal.
        restarted.share_object(OBJECT_ID, {"clauses": []}, list(URIS))

        recovered = restarted.recover_runs()
        assert list(recovered.values()) == ["resumed"]
        assert versions(domain) == [1, 1, 1]
        assert states(domain)[0] == {"clauses": ["delivery"]}
        assert len({repr(state) for state in states(domain)}) == 1
        # And the restarted identity keeps proposing.
        outcome = restarted.propose_update(OBJECT_ID, {"clauses": ["payment"]})
        assert outcome.agreed
        assert versions(domain) == [2, 2, 2]


class TestOrphanExpiry:
    def orphaned_domain(self, timeout=5.0):
        clock = SimulatedClock()
        domain = durable_domain(clock=clock, orphan_run_timeout=timeout)
        proposer = domain.organisation(URIS[0])
        crash_once_at("after-journal-committed")
        with pytest.raises(SimulatedCrash):
            proposer.propose_update(OBJECT_ID, {"clauses": ["delivery"]})
        (record,) = proposer.controller.run_journal.open_runs()
        return domain, record.run_id

    def test_responders_expire_orphaned_runs(self):
        domain, run_id = self.orphaned_domain()
        scheduler = domain.retry_scheduler
        b, c = (domain.organisation(uri) for uri in URIS[1:])
        assert b.controller.pending_orphan_watches() == [run_id]
        assert c.controller.pending_orphan_watches() == [run_id]

        # The proposer never comes back; virtual time passes the timeout.
        scheduler.drive_until(
            lambda: not b.controller.pending_orphan_watches()
            and not c.controller.pending_orphan_watches()
        )
        for responder in (b, c):
            run = responder.controller._handler.runs.get(run_id)  # noqa: SLF001
            assert run is not None and run.finished
            expiries = [
                record
                for record in responder.audit_records(subject=run_id)
                if record.details.get("event") == "orphan-run-expired"
            ]
            assert len(expiries) == 1
        # No timer leaks: the expiry timers fired and nothing rescheduled.
        assert scheduler.pending_timers() == 0
        # State never advanced from an expired proposal.
        assert versions(domain) == [0, 0, 0]

    def test_recovery_abort_clears_orphan_watches_before_expiry(self):
        domain, run_id = self.orphaned_domain()
        scheduler = domain.retry_scheduler
        b, c = (domain.organisation(uri) for uri in URIS[1:])
        # Here the proposer *does* come back, before the timeout fires.
        # (The run committed, so recovery resumes it; the outcome delivery
        # clears the responders' expiry clocks.)
        recovered = domain.recover_runs()
        assert list(recovered[URIS[0]].values()) == ["resumed"]
        assert b.controller.pending_orphan_watches() == []
        assert c.controller.pending_orphan_watches() == []
        assert scheduler.pending_timers() == 0
        assert versions(domain) == [1, 1, 1]

    def test_outcome_delivery_cancels_the_watch_in_healthy_runs(self):
        clock = SimulatedClock()
        domain = durable_domain(clock=clock, orphan_run_timeout=5.0)
        outcome = domain.organisation(URIS[0]).propose_update(
            OBJECT_ID, {"clauses": ["delivery"]}
        )
        assert outcome.agreed
        for uri in URIS[1:]:
            assert domain.organisation(uri).controller.pending_orphan_watches() == []
        assert domain.retry_scheduler.pending_timers() == 0


class TestAbortNoticeAuthorisation:
    def test_impostor_abort_notice_is_refused(self):
        domain, run_id = TestOrphanExpiry().orphaned_domain(timeout=1000.0)
        impostor = domain.organisation(URIS[2])
        victim = domain.organisation(URIS[1])
        live_run = victim.controller._handler.runs.get(run_id)  # noqa: SLF001
        assert live_run is not None and not live_run.finished

        from repro.core.messages import B2BProtocolMessage
        from repro.core.sharing import ACTION_ABORT, RunAbortNotice

        victim.controller.handle_abort(
            B2BProtocolMessage(
                run_id=run_id,
                protocol="nr-sharing",
                step=3,
                sender=impostor.uri,  # not the run's initiator
                recipient=victim.uri,
                payload=RunAbortNotice(
                    run_id=run_id,
                    object_id=OBJECT_ID,
                    proposer=impostor.uri,
                    reason="forged",
                ),
                attributes={"action": ACTION_ABORT},
            )
        )
        # The run survives and the expiry watch still stands.
        assert not live_run.finished
        assert victim.controller.pending_orphan_watches() == [run_id]
        refused = [
            record
            for record in victim.audit_records(subject=run_id)
            if record.details.get("event") == "abort-refused"
        ]
        assert len(refused) == 1
