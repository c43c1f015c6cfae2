"""Unit tests for the run engine (every coordination round runs on it).

Covers the :class:`repro.core.sharing.RunFuture` lifecycle (completion,
abort, deadline expiry), the timer hygiene of aborted runs (extending the
``ReliableChannel.close`` no-leak guarantee to whole protocol runs), the
membership-change expiry, the scheduler-driven fair-exchange abort
deadline, and the engine's own contract: a healthy blocking round stays on
the calling thread, a lossy one converges with complete evidence.
"""

import gc
import threading
import weakref
from collections import Counter

import pytest

from repro import (
    ComponentDescriptor,
    DeploymentStyle,
    FaultModel,
    TokenType,
    TrustDomain,
    parallel,
)
from repro.transport.wire import WireTransport
from repro.core.fair_exchange import FairExchangeClient
from repro.core.sharing import RunFuture
from repro.errors import CoordinationError, FairExchangeError, MembershipError
from tests.conftest import QuoteService


def make_domain(parties=3, **kwargs):
    uris = [f"urn:org:p{i}" for i in range(parties)]
    kwargs.setdefault("scheme", "hmac")
    domain = TrustDomain.create(uris, **kwargs)
    domain.share_object("doc", {"v": 0})
    return domain


class TestProposeUpdateAsync:
    def test_async_run_reaches_agreement_and_applies_everywhere(self):
        domain = make_domain()
        future = domain.organisation("urn:org:p0").propose_update_async("doc", {"v": 1})
        assert isinstance(future, RunFuture)
        outcome = future.result(timeout=30)
        assert outcome.agreed and outcome.new_version == 1
        assert future.done()
        for uri in domain.party_uris():
            assert domain.organisation(uri).shared_state("doc") == {"v": 1}
        assert domain.retry_scheduler.pending_timers() == 0

    def test_many_concurrent_runs_from_one_thread(self):
        domain = make_domain(
            parties=4,
            fault_model=FaultModel(drop_probability=0.15, seed=b"async-unit"),
        )
        for index in range(8):
            domain.share_object(f"obj-{index}", {"v": 0})
        proposer = domain.organisation("urn:org:p0")
        futures = [
            proposer.propose_update_async(f"obj-{index}", {"v": index + 1})
            for index in range(8)
        ]
        outcomes = [future.result(timeout=60) for future in futures]
        assert all(outcome.agreed for outcome in outcomes)
        for index in range(8):
            assert domain.organisation("urn:org:p3").shared_state(f"obj-{index}") == {
                "v": index + 1
            }
        assert domain.retry_scheduler.pending_timers() == 0

    def test_vetoed_async_run_reports_reason(self):
        from repro import CallableValidator

        domain = make_domain()
        domain.organisation("urn:org:p1").controller.add_validator(
            "doc", CallableValidator(lambda ctx: False, name="always-veto")
        )
        outcome = (
            domain.organisation("urn:org:p0")
            .propose_update_async("doc", {"v": 2})
            .result(timeout=30)
        )
        assert not outcome.agreed
        with pytest.raises(CoordinationError):
            outcome.require_agreed()

    def test_unknown_object_raises_synchronously(self):
        domain = make_domain()
        with pytest.raises(CoordinationError):
            domain.organisation("urn:org:p0").propose_update_async("nope", {})

    def test_a_settled_run_is_freed_without_the_cyclic_collector(self):
        from repro.core.sharing import _UpdateRun

        domain = make_domain()
        controller = domain.organisation("urn:org:p0").controller
        gc.disable()
        try:
            run = _UpdateRun(controller, "doc", {"v": 1})
            machine = weakref.ref(run)
            future = run.start()
            del run
            assert future.result(timeout=30).agreed
            assert machine() is None  # no future <-> run cycle left behind
            assert future.abort() is False
        finally:
            gc.enable()


class TestOneEngine:
    """The blocking API is ``..._async(...).result()`` on the only engine."""

    def test_every_domain_comes_with_its_retry_scheduler(self):
        simulated = TrustDomain.create(["urn:org:p0", "urn:org:p1"], scheme="hmac")
        assert simulated.retry_scheduler is simulated.network.retry_scheduler
        assert simulated.retry_scheduler.clock is simulated.network.clock
        with WireTransport(
            local_parties=["urn:org:p0", "urn:org:p1"], await_remote_credentials=False
        ) as transport:
            wired = TrustDomain.create(
                ["urn:org:p0", "urn:org:p1"], transport=transport, scheme="hmac"
            )
            assert wired.retry_scheduler is transport.network.retry_scheduler
            assert wired.retry_scheduler.clock is transport.network.clock

    def test_healthy_blocking_rounds_never_leave_the_calling_thread(
        self, monkeypatch
    ):
        domain = make_domain(parties=4)
        submitted = []
        monkeypatch.setattr(
            parallel, "submit", lambda thunk, **kw: submitted.append(thunk)
        )
        proposer = domain.organisation("urn:org:p0")
        assert proposer.propose_update("doc", {"v": 1}).agreed
        assert proposer.controller.disconnect_member("doc", "urn:org:p3").agreed
        assert proposer.controller.connect_member("doc", "urn:org:p3").agreed
        # Every fan-out was complete when its next phase was chained: no
        # continuation hopped to the executor and no timer was ever needed.
        assert submitted == []
        assert domain.retry_scheduler.timers_scheduled == 0
        for uri in domain.party_uris():
            assert domain.organisation(uri).shared_state("doc") == {"v": 1}

    def test_async_future_of_a_healthy_round_is_resolved_on_return(self):
        domain = make_domain()
        future = domain.organisation("urn:org:p0").propose_update_async(
            "doc", {"v": 1}, deadline=60.0
        )
        assert future.done() and future.result().agreed
        # The deadline was scheduled and withdrawn; it is the only timer.
        assert domain.retry_scheduler.timers_scheduled == 1
        assert domain.retry_scheduler.pending_timers() == 0

    def test_rollup_deferred_update_resolves_without_a_run(self):
        domain = make_domain()
        controller = domain.organisation("urn:org:p0").controller
        with controller.rollup("doc"):
            future = controller.propose_update_async("doc", {"v": 7})
            assert future.done()
            assert future.result().reason == "deferred until rollup completes"
        assert domain.organisation("urn:org:p2").shared_state("doc") == {"v": 7}

    def test_seeded_lossy_rounds_converge_with_complete_evidence(self):
        domain = make_domain(
            parties=4,
            fault_model=FaultModel(
                drop_probability=0.1, max_consecutive_drops=3, seed=b"lossy-async"
            ),
        )
        proposer = domain.organisation("urn:org:p0")
        run_ids = []
        for value in range(1, 9):
            outcome = proposer.propose_update("doc", {"v": value})
            assert outcome.agreed, outcome.reason
            run_ids.append(outcome.run_id)
        assert proposer.controller.disconnect_member("doc", "urn:org:p3").agreed
        stats = domain.network.statistics
        assert stats.messages_dropped > 0  # the fault model actually fired
        assert stats.failed_attempts_per_destination() != {}
        assert domain.retry_scheduler.timers_fired > 0  # retries were timers
        assert domain.retry_scheduler.pending_timers() == 0
        members = domain.party_uris()[:3]
        replicas = {
            (
                domain.organisation(uri).controller.state_digest("doc"),
                domain.organisation(uri).shared_version("doc"),
            )
            for uri in members
        }
        assert len(replicas) == 1 and replicas.pop()[1] == 8
        assert not domain.organisation("urn:org:p3").controller.is_shared("doc")
        # Every update run left the full NR evidence set at every party:
        # the proposer generated origin + outcome and received three
        # decisions; each responder received origin, outcome and the other
        # two decisions and generated its own.
        for run_id in run_ids:
            for uri in domain.party_uris():
                holdings = Counter(
                    (record.token_type, record.role)
                    for record in domain.organisation(uri).evidence_for_run(run_id)
                )
                if uri == "urn:org:p0":
                    assert holdings == {
                        (TokenType.NRO_UPDATE.value, "generated"): 1,
                        (TokenType.NR_OUTCOME.value, "generated"): 1,
                        (TokenType.NR_DECISION.value, "received"): 3,
                    }
                else:
                    assert holdings == {
                        (TokenType.NRO_UPDATE.value, "received"): 1,
                        (TokenType.NR_OUTCOME.value, "received"): 1,
                        (TokenType.NR_DECISION.value, "generated"): 1,
                        (TokenType.NR_DECISION.value, "received"): 2,
                    }

    @pytest.mark.parametrize(
        "style", [DeploymentStyle.INLINE_TTP, DeploymentStyle.DISTRIBUTED_TTP]
    )
    def test_relayed_rounds_under_loss_wait_inside_the_runs_own_hold(self, style):
        # A TTP relay waits for its own onward delivery *inside* the
        # proposer's fan-out -- under the advance hold of the run's
        # synchronous stretch (or of its resumed continuation).  On a
        # virtual clock only that nested wait can move time to the relay's
        # retry deadline, so it must not be blocked by the hold it runs in.
        domain = make_domain(
            style=style,
            fault_model=FaultModel(
                drop_probability=0.3, max_consecutive_drops=3, seed=b"relay-loss"
            ),
        )
        agreed = []

        def drive():
            for value in range(1, 5):
                outcome = domain.organisation("urn:org:p0").propose_update(
                    "doc", {"v": value}
                )
                agreed.append(outcome.agreed)

        worker = threading.Thread(target=drive, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert agreed == [True] * 4
        assert domain.network.statistics.messages_dropped > 0
        assert domain.retry_scheduler.pending_timers() == 0
        for uri in domain.party_uris():
            assert domain.organisation(uri).shared_state("doc") == {"v": 4}

    def test_concurrent_relayed_proposers_do_not_deadlock_on_each_others_holds(self):
        # Several threads, each parked in a relay's nested wait under its own
        # run's hold: if parked holds counted as work, every thread would
        # wait for the others to finish and virtual time would never move.
        domain = make_domain(
            style=DeploymentStyle.INLINE_TTP,
            fault_model=FaultModel(
                drop_probability=0.3, max_consecutive_drops=3, seed=b"relay-race"
            ),
        )
        for index in range(3):
            domain.share_object(f"obj-{index}", {"v": 0})
        agreed = []

        def drive(index):
            proposer = domain.organisation(f"urn:org:p{index}")
            for value in range(1, 9):
                agreed.append(
                    proposer.propose_update(f"obj-{index}", {"v": value}).agreed
                )

        workers = [
            threading.Thread(target=drive, args=(index,), daemon=True)
            for index in range(3)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert agreed == [True] * 24
        assert domain.network.statistics.messages_dropped > 0
        assert domain.retry_scheduler.quiescence().advance_holds == 0
        assert domain.retry_scheduler.pending_timers() == 0

    def test_generous_deadline_changes_nothing_but_timer_counters(self):
        """A deadline that never fires must not alter the protocol's cost."""
        domains = [
            make_domain(
                parties=4,
                fault_model=FaultModel(drop_probability=0.1, seed=b"deadline-equiv"),
            )
            for _ in range(2)
        ]
        plain, deadlined = (domain.organisation("urn:org:p0") for domain in domains)
        for value in (1, 2, 3):
            assert plain.propose_update_async("doc", {"v": value}).result(120).agreed
            assert (
                deadlined.propose_update_async("doc", {"v": value}, deadline=10_000.0)
                .result(120)
                .agreed
            )
        assert domains[0].network.statistics == domains[1].network.statistics
        assert [
            domain.organisation("urn:org:p3").controller.state_digest("doc")
            for domain in domains
        ] == [plain.controller.state_digest("doc")] * 2
        assert domains[1].retry_scheduler.pending_timers() == 0


class TestRunDeadlinesAndAbort:
    def partitioned_domain(self):
        domain = make_domain()
        for uri in domain.party_uris():
            if uri != "urn:org:p0":
                domain.network.partition.sever("urn:org:p0", uri)
        return domain

    def test_deadline_aborts_run_and_releases_timers(self):
        domain = self.partitioned_domain()
        future = domain.organisation("urn:org:p0").propose_update_async(
            "doc", {"v": 1}, deadline=0.5
        )
        outcome = future.result(timeout=30)
        assert not outcome.agreed
        assert "deadline" in outcome.reason
        # The abort withdrew the run's delivery retries and its own deadline
        # timer: nothing pending, for this run or at all.
        assert domain.retry_scheduler.pending_timers_for_run(future.run_id) == 0
        assert domain.retry_scheduler.pending_timers() == 0
        # The replica never applied anything.
        assert domain.organisation("urn:org:p0").shared_state("doc") == {"v": 0}
        audits = domain.organisation("urn:org:p0").audit_records(
            subject=future.run_id
        )
        assert any(r.details.get("event") == "update-aborted" for r in audits)

    def test_manual_abort_settles_future(self):
        domain = self.partitioned_domain()
        future = domain.organisation("urn:org:p0").propose_update_async("doc", {"v": 1})
        assert not future.done()
        assert future.abort("operator gave up") is True
        outcome = future.result(timeout=30)
        assert not outcome.agreed and "operator gave up" in outcome.reason
        assert domain.retry_scheduler.pending_timers() == 0
        # A settled run cannot be aborted twice.
        assert future.abort("again") is False

    def test_deadline_cancelled_on_normal_completion(self):
        domain = make_domain()
        future = domain.organisation("urn:org:p0").propose_update_async(
            "doc", {"v": 1}, deadline=60.0
        )
        outcome = future.result(timeout=30)
        assert outcome.agreed
        assert domain.retry_scheduler.pending_timers() == 0  # deadline withdrawn

    def test_completed_run_ignores_late_abort(self):
        domain = make_domain()
        future = domain.organisation("urn:org:p0").propose_update_async("doc", {"v": 1})
        outcome = future.result(timeout=30)
        assert outcome.agreed
        assert future.abort() is False
        assert future.result(timeout=1).agreed  # outcome unchanged


class TestCommitBarrier:
    """Aborts race the outcome fan-out; the commit barrier decides the winner."""

    def test_abort_refused_once_outcome_committed(self):
        from repro.core.sharing import _UpdateRun

        domain = make_domain()
        controller = domain.organisation("urn:org:p0").controller
        run = _UpdateRun(controller, "doc", {"v": 1})
        phase1 = controller.coordinator.request_all_async(run._phase1_messages())
        outcome_fan_out = run._commit_outcome(run._phase2_messages(phase1.results()))
        assert outcome_fan_out is not None
        # The collective decision is out at the peers: aborting now would
        # diverge the replicas, so it is refused and the run completes.
        assert run.abort("too late") is False
        run._after_phase2(outcome_fan_out)
        outcome = run.future.result(timeout=10)
        assert outcome.agreed
        for uri in domain.party_uris():
            assert domain.organisation(uri).shared_state("doc") == {"v": 1}

    def test_abort_before_commit_suppresses_outcome_fanout(self):
        from repro.core.sharing import _UpdateRun

        domain = make_domain()
        controller = domain.organisation("urn:org:p0").controller
        run = _UpdateRun(controller, "doc", {"v": 1})
        phase1 = controller.coordinator.request_all_async(run._phase1_messages())
        messages = run._phase2_messages(phase1.results())
        assert run.abort("changed my mind") is True
        before = domain.network.statistics.messages_sent
        assert run._commit_outcome(messages) is None  # nothing sent
        assert domain.network.statistics.messages_sent == before
        assert run.future.result(timeout=10).agreed is False
        # No peer applied anything: the outcome never left the proposer.
        for uri in domain.party_uris():
            assert domain.organisation(uri).shared_state("doc") == {"v": 0}
        # And the proposer's evidence trail agrees with the not-agreed
        # result: no generated NR_OUTCOME token exists for the dead run.
        store = domain.organisation("urn:org:p0").evidence_store
        assert store.tokens_of_type(run.run_id, TokenType.NR_OUTCOME.value) == []


class TestMembershipAsync:
    def test_connect_member_async(self):
        domain = make_domain(parties=4)
        members = domain.party_uris()[:3]
        newcomer = domain.party_uris()[3]
        for uri in members:
            domain.organisation(uri).share_object("grp", {"v": 0}, members)
        future = domain.organisation(members[0]).controller.connect_member_async(
            "grp", newcomer
        )
        outcome = future.result(timeout=30)
        assert outcome.agreed
        assert domain.organisation(newcomer).controller.is_shared("grp")
        assert domain.retry_scheduler.pending_timers() == 0

    def test_membership_expiry_aborts_pending_change(self):
        domain = make_domain(parties=3)
        controller = domain.organisation("urn:org:p0").controller
        for uri in domain.party_uris():
            if uri != "urn:org:p0":
                domain.network.partition.sever("urn:org:p0", uri)
        future = controller.disconnect_member_async(
            "doc", "urn:org:p2", deadline=0.5
        )
        outcome = future.result(timeout=30)
        assert not outcome.agreed and "deadline" in outcome.reason
        # Membership unchanged everywhere; no timers left behind.
        assert "urn:org:p2" in controller.members("doc")
        assert domain.retry_scheduler.pending_timers() == 0

    def test_membership_validation_raises_synchronously(self):
        domain = make_domain(parties=3)
        controller = domain.organisation("urn:org:p0").controller
        with pytest.raises(MembershipError):
            controller.connect_member_async("doc", "urn:org:p1")


class TestFairExchangeAbortDeadline:
    @pytest.fixture
    def arbitrated(self):
        domain = TrustDomain.create(
            ["urn:org:client", "urn:org:server"],
            with_arbitrator=True,
        )
        server = domain.organisation("urn:org:server")
        server.deploy(
            QuoteService(),
            ComponentDescriptor(name="QuoteService", non_repudiation=True),
        )
        client = domain.organisation("urn:org:client")
        outcome = client.invoke_non_repudiably(
            server.uri, "QuoteService", "quote", ["beam"]
        )
        return domain, client, server, outcome.run_id

    def test_expired_deadline_obtains_abort_token(self, arbitrated):
        domain, client, server, run_id = arbitrated
        exchange = FairExchangeClient(
            client.uri, client.coordinator, domain.arbitrator_uri
        )
        handle = exchange.schedule_abort(run_id, timeout=0.25)
        assert not handle.fired
        domain.retry_scheduler.drive_until(lambda: handle.fired, timeout=30)
        stored = client.evidence_store.tokens_of_type(
            run_id, TokenType.TTP_ABORT.value
        )
        assert stored, "deadline expiry should have produced a TTP_ABORT"
        assert domain.retry_scheduler.pending_timers() == 0
        # The abort is final: the server can no longer resolve.
        server_exchange = FairExchangeClient(
            server.uri, server.coordinator, domain.arbitrator_uri
        )
        with pytest.raises(FairExchangeError):
            server_exchange.request_resolution(run_id)

    def test_cancelled_deadline_never_aborts(self, arbitrated):
        domain, client, server, run_id = arbitrated
        exchange = FairExchangeClient(
            client.uri, client.coordinator, domain.arbitrator_uri
        )
        handle = exchange.schedule_abort(run_id, timeout=5.0)
        assert handle.cancel() is True  # the awaited response "arrived"
        assert domain.retry_scheduler.pending_timers() == 0
        server_exchange = FairExchangeClient(
            server.uri, server.coordinator, domain.arbitrator_uri
        )
        affidavit = server_exchange.request_resolution(run_id)
        assert affidavit.token_type == TokenType.TTP_AFFIDAVIT.value

    def test_deadline_losing_the_race_is_audited_not_raised(self, arbitrated):
        domain, client, server, run_id = arbitrated
        server_exchange = FairExchangeClient(
            server.uri, server.coordinator, domain.arbitrator_uri
        )
        server_exchange.request_resolution(run_id)  # decision now final
        exchange = FairExchangeClient(
            client.uri, client.coordinator, domain.arbitrator_uri
        )
        handle = exchange.schedule_abort(run_id, timeout=0.25)
        domain.retry_scheduler.drive_until(lambda: handle.fired, timeout=30)
        audits = client.audit_records(subject=run_id)
        assert any(
            record.details.get("event") == "abort-deadline-refused"
            for record in audits
        )
