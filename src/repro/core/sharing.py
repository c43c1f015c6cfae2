"""Non-repudiable information sharing (NR-Sharing / B2BObjects).

Implements the state-coordination abstraction of Section 3.3 and its
component-based realisation of Section 4.3 (Figure 8):

* each organisation holds a local replica of the shared information,
  encapsulated by a :class:`B2BObjectController`;
* when a party proposes an update, its controller runs a non-repudiable state
  coordination protocol with every other member of the sharing group:

  1. the proposal, with evidence of origin (``NRO_UPDATE``), is delivered to
     every peer;
  2. each peer independently validates the proposal using locally configured,
     application-specific validators and returns a signed decision
     (``NR_DECISION``);
  3. the collective outcome (``NR_OUTCOME``), together with every *other*
     responder's decision evidence (each already holds its own), is
     distributed to all members so that everyone has a consistent,
     verifiable view of the agreed state;

* the update is applied everywhere if and only if agreement was unanimous;
  otherwise every replica stays in the state prior to the proposal.  A
  responder that accepts *reserves* the object for the run (one run per
  object: a competing proposal is refused ``busy``) and keeps the proposal
  it accepted; it applies that copy only when the outcome passes
  :func:`~repro.core.agreement.agreement_proof`, so the outcome wave does
  not carry the proposal;
* non-repudiable *connect* and *disconnect* protocols govern changes to the
  membership of the sharing group.

The :class:`B2BObjectInterceptor` traps invocations on entity components
marked as B2BObjects so that "the enhancement of an entity bean to become a
B2BObject is effectively transparent to the local EJB client and its
application interface".

Execution model: every coordination round (state update or membership
change) is one :class:`_CoordinationRun` -- an explicit two-phase state
machine whose protocol logic lives in three hooks (build the phase-1
proposal fan-out, turn the collected decisions into the phase-2 outcome
fan-out, finalise) and whose one driver is :meth:`_CoordinationRun.start`.
``start()`` runs phase 1 on the calling thread and chains each later phase
on the :class:`~repro.core.coordinator.CoordinatorFanOut` it waits for: a
fan-out that is already complete (every healthy one is) continues inline on
the same thread; one that is waiting on retry timers continues when its last
delivery resolves, from the thread that resolved it
(:meth:`~repro.transport.scheduler.RetryScheduler.resume`: inline on a
virtual clock, on the shared :mod:`repro.parallel` executor on a wall
clock).  Between phases a waiting run occupies no thread at all -- only
scheduler timers and completion callbacks -- so whoever drives the scheduler
multiplexes thousands of concurrent runs.  ``start()`` returns the run's
:class:`RunFuture`; the
blocking entry points (``propose_update``, ``connect_member``,
``disconnect_member``) are ``..._async(...).result()``, so blocking and
non-blocking callers differ only in who waits.

A run may carry a *deadline*: a
:class:`~repro.transport.scheduler.RetryScheduler` timer that aborts the
pending run (cancelling its delivery retries via their run tag and
resolving its future as not-agreed) instead of parking a thread in a
timeout wait.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import codec
from repro.container.component import ComponentDescriptor
from repro.container.container import Container
from repro.container.interceptor import (
    Interceptor,
    Invocation,
    InvocationResult,
    NextInterceptor,
)
from repro.core.agreement import agreement_proof, decision_payload, proving_tokens
from repro.core.coordinator import B2BCoordinator
from repro.core.evidence import EvidenceToken, TokenType, payload_digest
from repro.core.messages import B2BProtocolMessage
from repro.core.protocol import B2BProtocolHandler, ProtocolRun
from repro.core.validators import (
    CompositeValidator,
    StateValidator,
    ValidationContext,
    ValidationDecision,
)
from repro.crypto.rng import new_unique_id
from repro.errors import (
    CoordinationError,
    EvidenceVerificationError,
    MembershipError,
    ProtocolError,
    ReproError,
)
from repro.faults.breaker import STATE_OPEN as BREAKER_STATE_OPEN
from repro.membership.service import Member, MembershipService
from repro.observability import tracing as _tracing
from repro.observability.runtime import STATE as _OBS
from repro.persistence import storage
from repro.persistence.run_journal import (
    PHASE_COMMITTED,
    JournaledRun,
    RunJournal,
)
from repro.transport.scheduler import DeliveryFuture, RetryScheduler, TimerHandle
from repro.transport.wire.wirecodec import wire_type

#: Protocol name for state and membership coordination.
NR_SHARING_PROTOCOL = "nr-sharing"

AUDIT_CATEGORY_SHARING = "nr.sharing"

#: Actions carried in message attributes.
ACTION_PROPOSE = "propose"
ACTION_OUTCOME = "outcome"
ACTION_MEMBERSHIP_PROPOSE = "membership-propose"
ACTION_MEMBERSHIP_OUTCOME = "membership-outcome"
ACTION_ABORT = "abort"
ACTION_CATCH_UP = "catch-up"

#: Refusal reason prefix of a proposal whose base is not the replica's version.
STALE_BASE = "stale base version"

#: Outcome re-delivery backoff (seconds): the delay doubles per attempt from
#: the base up to the cap.  Re-delivery stops on full acknowledgement, when
#: the object advances past the outcome, or after the attempt budget -- a
#: straggler it never reached then catches itself up (``catch_up``).
REDELIVERY_BASE_DELAY = 0.25
REDELIVERY_MAX_DELAY = 5.0
REDELIVERY_MAX_ATTEMPTS = 12

#: Age (seconds) past which a competing proposal may release a reservation
#: when no ``orphan_run_timeout`` is configured.  It exceeds a round's
#: worst-case retry budget on the wire: two phases of 10 attempts, each up
#: to a 30 s request timeout plus a 2 s backoff.
DEFAULT_ORPHAN_RUN_TIMEOUT = 900.0

#: Responder-side span names keyed by the action that triggered the handler.
_HANDLE_SPAN_NAMES = {
    ACTION_PROPOSE: "handle:proposal",
    ACTION_OUTCOME: "handle:outcome",
    ACTION_MEMBERSHIP_PROPOSE: "handle:membership-proposal",
    ACTION_MEMBERSHIP_OUTCOME: "handle:membership-outcome",
    ACTION_ABORT: "handle:abort",
}


class _NullScope:
    """Stateless no-op context manager (safe to share and re-enter)."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SCOPE = _NullScope()


def _span_scope(span):
    """Activate ``span``'s trace context for a block; no-op when ``span`` is None."""
    if span is None:
        return _NULL_SCOPE
    return span.activate()


@wire_type
@dataclass(frozen=True)
class RunAbortNotice:
    """Wire-level notification that a coordination run died before commit.

    Sent by a proposer whose run aborted, expired or failed before the
    commit barrier, and by a recovering proposer for every such journaled
    run, so peers release the run's reservation instead of holding it until
    their orphan expiry fires.  Registered for
    wire revival through the :func:`~repro.transport.wire.wire_type`
    decorator, so it crosses process boundaries without per-deployment
    registration.
    """

    run_id: str
    object_id: str
    proposer: str
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "RunAbortNotice":
        return cls(
            run_id=data["run_id"],
            object_id=data["object_id"],
            proposer=data["proposer"],
            reason=data.get("reason", ""),
        )


#: Test seam for crash-fault injection: when set, called as
#: ``injector(stage, run)`` right after each durable journal write and may
#: raise (simulating an in-process crash) or SIGKILL the process (chaos
#: suites).  Stages: ``"after-journal-proposed"``, ``"after-journal-committed"``.
_run_fault_injector: Optional[Callable[[str, "_CoordinationRun"], None]] = None


def set_run_fault_injector(
    injector: Optional[Callable[[str, "_CoordinationRun"], None]],
) -> None:
    """Install (or clear, with ``None``) the crash-fault injection hook."""
    global _run_fault_injector
    _run_fault_injector = injector


@dataclass
class SharingOutcome:
    """Result of one coordination round, with the evidence gathered."""

    run_id: str
    object_id: str
    agreed: bool
    new_version: Optional[int]
    proposer: str
    decisions: Dict[str, ValidationDecision] = field(default_factory=dict)
    evidence: Dict[str, EvidenceToken] = field(default_factory=dict)
    reason: str = ""

    def require_agreed(self) -> None:
        """Raise :class:`CoordinationError` unless the update was agreed."""
        if not self.agreed:
            rejecting = [
                party
                for party, decision in self.decisions.items()
                if not decision.accepted
            ]
            raise CoordinationError(
                f"update to {self.object_id!r} was not agreed "
                f"(vetoed by {', '.join(rejecting) or 'unknown'}): {self.reason}"
            )


class RunFuture(DeliveryFuture):
    """Completion handle of one asynchronous coordination run.

    Resolves to the run's :class:`SharingOutcome`.  Like every
    :class:`~repro.transport.scheduler.DeliveryFuture`, waiting on it drives
    the retry scheduler, so a thread blocked on one run keeps every other
    run's timers (and deadlines) moving.  A timed-out or aborted run
    *completes* -- with ``agreed=False`` and the abort reason -- rather than
    failing, so ``result()`` only raises for unexpected engine errors.
    """

    def __init__(self, run_id: str, scheduler: RetryScheduler) -> None:
        super().__init__(scheduler)
        self.run_id = run_id
        self._machine: Optional["_CoordinationRun"] = None

    def abort(self, reason: str = "aborted by caller") -> bool:
        """Abort the pending run; returns False when it can no longer abort.

        Cancels the run's scheduled delivery retries and deadline timer and
        completes the future with a not-agreed outcome.  Refused once the
        run has settled or has dispatched its outcome fan-out (the peers are
        applying the decision; disowning it would diverge the replicas).
        """
        if self._machine is None:
            return False
        return self._machine.abort(reason)


class _CoordinationRun:
    """One two-phase coordination round as an explicit state machine.

    Subclasses implement the protocol logic as pure phase hooks; the base
    class owns run lifecycle (deadline timer, abort/settle races) and the
    driver described in the module docstring.  Whichever of normal
    completion, failure, abort or deadline expiry happens first settles the
    run; the losers become no-ops, and every settle path cancels the
    deadline timer so settled runs leak no timers.
    """

    def __init__(
        self,
        controller: "B2BObjectController",
        object_id: str,
        run_id: str,
        deadline: Optional[float] = None,
    ) -> None:
        self._controller = controller
        self._coordinator = controller.coordinator
        self._services = controller.coordinator.services
        self.object_id = object_id
        self.run_id = run_id
        self._scheduler: RetryScheduler = (
            controller.coordinator.network.retry_scheduler
        )
        self._deadline = deadline
        self._deadline_handle: Optional[TimerHandle] = None
        self._state_lock = threading.Lock()
        self._settled = False
        # Once the outcome fan-out is dispatched the collective decision is
        # out in the world; from that point the run can complete but no
        # longer abort (a late abort would leave peers applying an outcome
        # the proposer disowned -- permanent divergence).
        self._committed = False
        self._fan_outs: List = []
        #: The built outcome wave, stashed by the phase-2 hook even when the
        #: dispatch is skipped (degraded run): the journal and the proposer's
        #: re-delivery task resend exactly these messages, so peers dedup on
        #: the original message ids no matter which path reaches them first.
        self._outcome_wave: List[B2BProtocolMessage] = []
        # Protocol state of both run kinds, published by the phase hooks.
        self._proposal: Any = None
        self._nro_update: Optional[EvidenceToken] = None
        self._peers: List[str] = []
        self._decisions: Dict[str, ValidationDecision] = {}
        self._decision_tokens: Dict[str, EvidenceToken] = {}
        self._reason = ""
        self._agreed = False
        self._degraded = False
        self._nr_outcome: Optional[EvidenceToken] = None
        self._journal: Optional[RunJournal] = self._services.run_journal
        # Root span for the whole coordination round: the run id *is* the
        # trace id, so every message stamped inside an activation below (and
        # every handler span a peer opens for it, in-process or across the
        # wire) lands in the same tree.
        self._span = None
        self._run_started = 0.0
        tracer = _OBS.tracing
        if tracer is not None:
            self._span = tracer.start_span(
                f"run:{self._journal_kind}",
                trace_id=run_id,
                use_ambient_parent=False,
                attributes={
                    "object_id": object_id,
                    "party": controller.party,
                },
            )
        self.future = RunFuture(run_id, self._scheduler)
        self.future._machine = self
        if self._span is not None or _OBS.metrics is not None:
            self._run_started = perf_counter()
            self.future.add_done_callback(self._end_root_span)

    #: Journal tag for the run kind; subclasses override.
    _journal_kind = "run"

    # -- protocol hooks (one coordination round = three steps) -------------------

    def _phase1_messages(self) -> List[B2BProtocolMessage]:
        """Build (and evidence) the proposal; returns the request fan-out."""
        raise NotImplementedError

    def _phase2_messages(self, results: List) -> List[B2BProtocolMessage]:
        """Digest phase-1 replies into the outcome; returns the one-way fan-out."""
        raise NotImplementedError

    def _finalize(self, errors: List[Optional[Exception]]) -> SharingOutcome:
        """Apply the agreed change (if any), audit, and build the outcome."""
        raise NotImplementedError

    def _aborted_outcome(self, reason: str) -> SharingOutcome:
        """Audit the abort and build the not-agreed outcome it resolves to."""
        details, new_version = self._abort_context()
        self._services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=self.run_id,
            details={"event": f"{self._journal_kind}-aborted", "object_id": self.object_id,
                     **details, "reason": reason},
        )
        nro = self._nro_update
        return SharingOutcome(
            run_id=self.run_id,
            object_id=self.object_id,
            agreed=False,
            new_version=new_version,
            proposer=self._controller.party,
            decisions=dict(self._decisions),
            evidence={} if nro is None else {nro.token_type: nro},
            reason=reason,
        )

    def _abort_context(self) -> tuple:
        """The run kind's abort audit details, and the version it leaves."""
        return {}, None

    # -- phase steps both run kinds share --------------------------------------------

    def _proposal_wave(self, token_type: TokenType, action: str) -> List[B2BProtocolMessage]:
        """Sign and store the proposal's origin evidence; one request per peer.

        The shared proposal body is encoded exactly once for the fan-out.
        """
        services = self._services
        self._nro_update = services.evidence_builder.build(
            token_type=token_type,
            run_id=self.run_id,
            step=1,
            recipient=self.object_id,
            payload=self._proposal,
        )
        services.evidence_store.store(
            run_id=self.run_id,
            token_type=self._nro_update.token_type,
            token=self._nro_update,
            role=services.evidence_store.ROLE_GENERATED,
        )
        return [
            B2BProtocolMessage(
                run_id=self.run_id,
                protocol=NR_SHARING_PROTOCOL,
                step=1,
                sender=self._controller.party,
                recipient=peer,
                payload=self._proposal,
                tokens=[self._nro_update],
                attributes={"action": action},
                reply_to=self._coordinator.address,
            )
            for peer in self._peers
        ]

    def _collect_decisions(self, results: List) -> None:
        """Verify each peer's signed decision; an unreachable peer refuses.

        Built locally and published by (atomic) reference assignment: a
        concurrent abort snapshots either no decisions or all of them, never
        a dict mid-mutation.  ``_reason`` becomes the first refusal's.
        """
        decisions: Dict[str, ValidationDecision] = {}
        tokens: Dict[str, EvidenceToken] = {}
        reason = ""
        for peer, (response, error) in zip(self._peers, results):
            if error is not None:
                token = None
                decision = ValidationDecision(
                    accepted=False, reason=f"peer unreachable: {error}", validator="coordinator"
                )
                reason = reason or f"peer {peer} unreachable"
            else:
                decision, token = self._controller._verify_decision(  # noqa: SLF001
                    self.run_id, peer, self._proposal, response
                )
                reason = reason or ("" if decision.accepted else decision.reason)
            decisions[peer] = decision
            if token is not None:
                tokens[peer] = token
        self._decisions, self._decision_tokens, self._reason = decisions, tokens, reason
        self._agreed = all(decision.accepted for decision in decisions.values())

    def _degrade(self, results: List) -> bool:
        """Skip the outcome wave when *every* peer was unreachable in phase 1.

        An exhausted partition window or a severed network: the wave could
        only burn the same retry budgets again.  The run resolves not-agreed
        with an audited reason -- the proposer's waiter settles instead of
        stranding on hopeless retries -- and the built wave stays stashed
        for journal recovery and the scheduler-driven re-delivery task.
        """
        if not self._peers or any(error is None for _response, error in results):
            return False
        self._degraded = True
        self._services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=self.run_id,
            details={
                "event": "run-degraded",
                "object_id": self.object_id,
                "reason": "all peers unreachable; suspected partition",
                "peers": list(self._peers),
                "outcome_wave_skipped": True,
            },
        )
        return True

    def _commit_outcome(self, outcome_messages: List[B2BProtocolMessage]):
        """Mark the run committed and dispatch the outcome fan-out.

        The committed flag flips atomically with the settled check, so an
        abort either wins *before* any outcome message leaves (and nothing
        is sent) or is refused forever after.  Returns ``None`` when an
        abort won the race.
        """
        with self._state_lock:
            if self._settled:
                return None
            self._committed = True
        # Only now is the outcome part of the run's permanent record: an
        # abort that won the race above must leave no generated evidence
        # asserting an outcome that never shipped.  The journal record is
        # written before any side effect (evidence persistence, outcome
        # dispatch) and commits the storage step -- phase 2's decision
        # evidence and this edge, one transaction on a shared backend -- so
        # a crash from here on recovers by *resuming* the committed run:
        # peers may already hold the outcome.  The NR_OUTCOME stored next is
        # committed before the first outcome message leaves.
        # The commit barrier gets its own span so the outcome wave (sends
        # stamped inside the activation) and every peer's ``handle:outcome``
        # parent under it rather than directly under the run root.
        tracer = _OBS.tracing
        commit_span = None
        if tracer is not None:
            commit_span = tracer.start_span(
                "commit",
                trace_id=self.run_id,
                parent=self._span.ctx if self._span is not None else None,
                use_ambient_parent=False,
            )
        try:
            with _span_scope(commit_span):
                self._journal_committed(outcome_messages)
                self._inject_fault("after-journal-committed")
                self._on_committed()
                fan_out = self._register_fan_out(
                    self._coordinator.send_all_async(outcome_messages)
                )
        except Exception:
            if commit_span is not None:
                commit_span.end("error")
            raise
        if commit_span is not None:
            commit_span.end("ok")
        return fan_out

    def _on_committed(self) -> None:
        """Persist outcome evidence; runs only when the outcome really ships."""

    # -- durability (write-ahead journal) ------------------------------------------

    def _phase1_fan_out(self):
        """Build phase 1, journal the intent, then dispatch the fan-out.

        The journal record lands *before* the first proposal message leaves:
        a run a peer has heard of is always a run the journal can recover
        (abort-and-notify), while a crash before the record behaves as if
        the run never existed -- no peer saw it either, since nothing was
        dispatched.  Writing it commits the storage step: phase 1's origin
        evidence and the proposed edge are durable together, the edge last.
        """
        messages = self._phase1_messages()
        if messages is None:  # the object is reserved by another run
            return None
        self._journal_proposed(messages)
        self._inject_fault("after-journal-proposed")
        return self._register_fan_out(
            self._coordinator.request_all_async(messages)
        )

    def _journal_proposed(self, messages: List[B2BProtocolMessage]) -> None:
        if self._journal is None:
            return
        self._journal.record_proposed(
            self.run_id,
            kind=self._journal_kind,
            object_id=self.object_id,
            proposer=self._controller.party,
            peers=[message.recipient for message in messages],
            proposal=self._proposal,
            deadline=self._deadline,
        )

    def _journal_commit_apply(self) -> Dict[str, Any]:
        """Declarative local-apply spec for the committed record; subclass hook."""
        raise NotImplementedError

    def _journal_committed(self, messages: List[B2BProtocolMessage]) -> None:
        if self._journal is None:
            return
        # A degraded run skips its dispatch but still built the wave: journal
        # the *built* wave, not the (empty) dispatched one, so a recovering
        # proposer resends the exact messages the peers never saw instead of
        # forgetting them.
        wave = messages or self._outcome_wave
        if wave:
            first = wave[0]
            payload, attributes, step = first.payload, first.attributes, first.step
        else:  # a wave with no recipients still commits its local apply
            payload, attributes, step = None, {}, 3
        self._journal.record_committed(
            self.run_id,
            payload=payload,
            attributes=attributes,
            recipients=[message.recipient for message in wave],
            message_ids={
                message.recipient: message.message_id for message in wave
            },
            step=step,
            nr_outcome=self._nr_outcome,
            apply=self._journal_commit_apply(),
        )

    def _resolve(
        self, outcome: Optional[SharingOutcome], error: Optional[Exception] = None
    ) -> None:
        """Resolve the future, once everything the run wrote is durable.

        However the run resolves -- completion, abort, deadline expiry or a
        failure before the commit barrier -- the settled journal record
        marks it as needing no recovery, and writing it commits the step's
        tail (the local apply, its audit record) in the same transaction.
        Only then can a waiter, possibly on another thread, see the result.
        A run that ends before the commit barrier first notifies its peers;
        past it, a failed run keeps its reservation for ``recover_runs()``.
        """
        if not self._committed:
            self._notify_abort(outcome.reason if error is None else f"run failed: {error}")
        if error is None or not self._committed:
            self._controller._release_reservation(self.object_id, self.run_id)  # noqa: SLF001
        if self._journal is not None:
            self._journal_settled(outcome, error)
        storage.commit()
        if error is not None:
            self.future.fail(error)
        else:
            self.future.complete(outcome)

    def _journal_settled(
        self, outcome: Optional[SharingOutcome], error: Optional[Exception]
    ) -> None:
        if error is not None and self._committed:
            # The engine failed past the commit barrier: peers may already
            # hold (and have applied) the outcome, so the run is not over.
            # Its journal record stays open for recover_runs() to resume.
            return
        if error is not None:
            agreed, reason = False, f"run failed: {error}"
        else:
            agreed, reason = outcome.agreed, outcome.reason
        try:
            self._journal.record_settled(self.run_id, agreed=agreed, reason=reason)
        except Exception as journal_error:  # noqa: BLE001 - resolution beats GC
            # The run resolved; failing the resolver over a lost GC marker
            # would strand waiters, so record the failure and move on (the
            # worst case is a spurious recovery pass on next restart).
            self._services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=self.run_id,
                details={
                    "event": "journal-settle-failed",
                    "error": str(journal_error),
                },
            )

    def _end_root_span(self, future: DeliveryFuture) -> None:
        """Close the run's root span and record its end-to-end latency."""
        observe = _OBS.observe_run_duration
        if observe is not None:
            observe(perf_counter() - self._run_started)
        span, self._span = self._span, None
        if span is None:
            return
        if future.error is not None:
            span.end("failed")
        else:
            outcome = future.result()
            span.end("agreed" if outcome.agreed else "not-agreed")

    def _inject_fault(self, stage: str) -> None:
        if _run_fault_injector is not None:
            _run_fault_injector(stage, self)

    def _register_fan_out(self, fan_out):
        """Track a live fan-out so an abort can close its retry channel.

        Timer-heap sweeps alone cannot stop a retry wave that is already
        firing (its timer left the heap before its callback ran); closing
        the channel flips the flag that every firing reattempt re-checks, so
        no post-abort timer is ever rescheduled.
        """
        with self._state_lock:
            self._fan_outs.append(fan_out)
            aborted = self._settled
        if aborted:  # abort won while the fan-out was being created
            fan_out.cancel()
        return fan_out

    # -- continuation driver ------------------------------------------------------

    def start(self) -> RunFuture:
        """Start the round; returns its :class:`RunFuture` without waiting.

        Phase 1's first delivery attempts run on the calling thread, and so
        does every later phase whose fan-out is complete by the time it is
        chained: on a healthy network the future is resolved on return and
        the run never left this thread.  A phase that has to wait for retry
        timers resumes when they resolve (see :meth:`_chain`).  Errors
        raised while *building* phase 1 (unknown object, membership
        violations) propagate synchronously; later failures resolve the
        future.

        The whole synchronous stretch runs under an advance hold: a run that
        is computing -- verifying decisions, building the outcome -- holds
        no earlier timer, so without the hold a concurrent driver could
        advance a virtual clock straight to the run's own deadline and
        expire it mid-stride.
        """
        with self._scheduler.hold_advance(), _span_scope(self._span), storage.step():
            if self._deadline is not None:
                self._deadline_handle = self._scheduler.schedule(
                    self._deadline, self._expire, run_id=self.run_id
                )
            try:
                decision_fan_out = self._phase1_fan_out()
            except Exception:
                self._cancel_deadline()
                self._controller._release_reservation(self.object_id, self.run_id)  # noqa: SLF001
                raise
            if decision_fan_out is None:  # refused locally; no peer saw it
                self._settle(lambda: self.future.complete(self._aborted_outcome(self._reason)))
            else:
                self._chain(decision_fan_out, self._after_phase1)
        return self.future

    def _chain(self, fan_out, continuation: Callable[[Any], None]) -> None:
        """Run ``continuation(fan_out)`` once the fan-out has settled.

        A fan-out that is already complete continues inline: the run stays
        on the thread (and under the advance hold) that is executing it.
        Otherwise the continuation is registered as a completion callback;
        it fires on whichever thread resolved the last delivery, and the
        scheduler decides where the run resumes from there (see
        :meth:`RetryScheduler.resume`).
        """
        if fan_out.done():
            continuation(fan_out)
        else:
            fan_out.add_done_callback(
                lambda done: self._scheduler.resume(lambda: continuation(done))
            )

    def _after_phase1(self, decision_fan_out) -> None:
        # A continuation resumed from a completion callback finds whatever
        # trace context that thread carries (another run's timer, a pool
        # worker's previous task) -- activate the run root explicitly so
        # everything this phase sends is attributed correctly (inline, this
        # re-activates what start() already set).
        with _span_scope(self._span), storage.step():
            if self._done():
                return
            try:
                outcome_messages = self._phase2_messages(
                    decision_fan_out.results()
                )
                outcome_fan_out = self._commit_outcome(outcome_messages)
                if outcome_fan_out is None:  # aborted while verifying
                    return
            except Exception as error:  # noqa: BLE001 - resolve, never strand waiters
                self._settle(lambda: self._resolve(None, error))
                return
            self._chain(outcome_fan_out, self._after_phase2)

    def _after_phase2(self, outcome_fan_out) -> None:
        with _span_scope(self._span), storage.step():
            if self._done():
                return
            try:
                outcome = self._finalize(outcome_fan_out.errors())
            except Exception as error:  # noqa: BLE001 - resolve, never strand waiters
                self._settle(lambda: self._resolve(None, error))
                return
            self._settle(lambda: self._resolve(outcome))

    # -- abort / timeout ----------------------------------------------------------

    def abort(self, reason: str = "aborted by caller") -> bool:
        """Settle the run as not-agreed and withdraw its pending timers.

        Refused (returns False) once the run has settled *or committed its
        outcome fan-out*: after the collective decision has been dispatched
        to peers, disowning it locally would diverge the replicas, so a late
        abort/deadline lets the run finish instead.
        """

        def settle_abort() -> None:
            # Close the live fan-outs' retry channels first: the closed flag
            # stops even a concurrently firing retry wave from rescheduling,
            # and resolves their futures -- any registered continuation then
            # fires, observes the settled run and sends no further phase.
            with self._state_lock:
                fan_outs = list(self._fan_outs)
            for fan_out in fan_outs:
                fan_out.cancel()
            # Sweep whatever else carries the run tag (the deadline timer
            # if still pending, externally scheduled run timers).
            self._scheduler.cancel_run(self.run_id)
            self._resolve(self._aborted_outcome(reason))

        with self._state_lock:
            if self._settled or self._committed:
                return False
            self._settled = True
        self._cancel_deadline()
        with storage.step():
            self._resolve_settled(settle_abort)
        return True

    def _expire(self) -> None:
        self.abort(f"run deadline of {self._deadline}s expired")

    def _done(self) -> bool:
        with self._state_lock:
            return self._settled

    def _settle(self, resolve: Callable[[], None]) -> bool:
        """Run ``resolve`` iff the run has not settled yet (exactly once)."""
        with self._state_lock:
            if self._settled:
                return False
            self._settled = True
        self._cancel_deadline()
        self._resolve_settled(resolve)
        return True

    def _resolve_settled(self, resolve: Callable[[], None]) -> None:
        """Resolve the future; a resolver that raises must still resolve it.

        The settled flag is already set, so no other path will touch the
        future again -- an escaping exception here (e.g. a bug in an
        outcome builder running on a timer-driving thread, a commit the
        backend refused) would otherwise strand every waiter forever.  The
        journal keeps such a run open, for ``recover_runs()`` to settle.
        """
        try:
            resolve()
        except Exception as error:  # noqa: BLE001 - last line of defence
            self.future.fail(error)
        finally:
            # A settled future can no longer abort; dropping the back
            # reference frees the run without the cyclic collector.
            self.future._machine = None

    def _reserved(self, base_version: Optional[int] = None) -> bool:
        """Hold the object for this run; a refused run signs and sends nothing."""
        self._reason = self._controller._reserve(  # noqa: SLF001
            self.object_id, self.run_id, self._controller.party, self._proposal,
            self._proposal.digest, base_version,
        ) or ""
        return not self._reason

    def _notify_abort(self, reason: str) -> None:
        """Best-effort abort notice (no retries) to each peer that may have accepted."""
        tokens, decisions = self._decision_tokens, self._decisions
        peers = [p for p in self._peers if p not in tokens or decisions[p].accepted]
        if peers:
            notices = self._controller._abort_notices(  # noqa: SLF001
                self.run_id, self.object_id, peers, reason
            )
            self._coordinator.send_all_async(notices).cancel()
            self._scheduler.cancel_run(self.run_id)

    def _cancel_deadline(self) -> None:
        handle, self._deadline_handle = self._deadline_handle, None
        if handle is not None:
            handle.cancel()


@dataclass
class _Reservation:
    """A replica's record that it accepted ``run_id``'s proposal (at its version)."""

    run_id: str
    proposer: str
    proposal: Any
    proposal_digest: bytes
    members: List[str]  # the sharing group the proposal was accepted in
    reserved_at: float


@dataclass
class _SharedObject:
    """Local bookkeeping for one shared object.

    Outside a rollup, ``state`` is held as its canonical encoding
    (:class:`repro.codec.Encoded`), so the digest and byte form of the agreed
    state are computed exactly once per agreed version -- the
    content-addressed-version idiom.  During a rollup the tentative state is
    kept raw, since it mutates without coordination.
    """

    object_id: str
    state: Any
    version: int = 0
    validators: CompositeValidator = field(default_factory=CompositeValidator)
    bound_instance: Any = None
    rollup_depth: int = 0
    rollup_base_state: Any = None
    reservation: Optional[_Reservation] = None

    def state_copy(self) -> Any:
        """A defensive plain copy of the state, decoded from canonical bytes."""
        return codec.decode(codec.encode(self.state))


class B2BObjectController:
    """Local interface to configuration, initiation and control of sharing.

    One controller per organisation manages every B2BObject the organisation
    shares.  It is "the local interface to configuration, initiation and
    control of information sharing" (Section 4.3).
    """

    def __init__(
        self,
        party: str,
        coordinator: B2BCoordinator,
        membership: Optional[MembershipService] = None,
        orphan_run_timeout: Optional[float] = None,
        durable_state: bool = False,
    ) -> None:
        self.party = party
        self._coordinator = coordinator
        self.membership = membership or MembershipService()
        #: Resume registration from the state store's agreed history after
        #: a restart instead of re-registering from configuration.
        self.durable_state = durable_state
        #: Responder-side proposal-age expiry (seconds): a proposal whose
        #: outcome has not arrived within this window is treated as orphaned
        #: -- its proposer died or partitioned away -- and its responder
        #: state is garbage-collected.  ``None`` disables the expiry clock.
        #: Either way a reservation older than this (or than
        #: ``DEFAULT_ORPHAN_RUN_TIMEOUT``) is released by the next competing
        #: proposal, so a vanished proposer cannot hold an object forever.
        self.orphan_run_timeout = orphan_run_timeout
        self._reservation_timeout = orphan_run_timeout or DEFAULT_ORPHAN_RUN_TIMEOUT
        self._orphan_timers: Dict[str, TimerHandle] = {}
        # Run ids whose (late) outcome is being applied right now: an orphan
        # expiry that fires mid-apply must cancel cleanly instead of
        # aborting a run whose outcome is already committed.
        self._applying_outcomes: set = set()
        # Outcome waves awaiting re-delivery, keyed by run id; each entry
        # holds the per-peer pending messages and the attempt counter that
        # drives the backoff and the budget.
        self._redeliveries: Dict[str, Dict[str, Any]] = {}
        self._redelivery_timers: Dict[str, TimerHandle] = {}
        self._objects: Dict[str, _SharedObject] = {}
        self._lock = threading.RLock()
        self._handler = SharingProtocolHandler(self)
        if not coordinator.has_handler(NR_SHARING_PROTOCOL):
            coordinator.register_handler(self._handler)

    # -- configuration -----------------------------------------------------------

    @property
    def coordinator(self) -> B2BCoordinator:
        return self._coordinator

    @property
    def handler(self) -> "SharingProtocolHandler":
        return self._handler

    def register_object(
        self,
        object_id: str,
        initial_state: Any,
        member_uris: List[str],
        validators: Optional[List[StateValidator]] = None,
    ) -> None:
        """Register a shared object and its sharing group on this controller.

        The initial registration is part of deployment/configuration (like
        identifying an entity bean as a B2BObject in its descriptor);
        subsequent membership changes go through the non-repudiable connect
        and disconnect protocols.
        """
        with self._lock:
            if object_id in self._objects:
                raise CoordinationError(f"object {object_id!r} is already registered")
            if self.party not in member_uris:
                raise MembershipError(
                    f"{self.party!r} must be a member of the group sharing {object_id!r}"
                )
            shared = _SharedObject(
                object_id=object_id, state=codec.canonicalize(initial_state)
            )
            for validator in validators or []:
                shared.validators.add(validator)
            self._objects[object_id] = shared
        if not self.membership.has_group(object_id):
            self.membership.create_group(
                object_id, [Member(uri=uri) for uri in member_uris]
            )
        state_store = self._coordinator.services.state_store
        resumed_version: Optional[int] = None
        if self.durable_state and state_store.version_count(object_id) > 0:
            # Durable resume: the backend already holds this object's agreed
            # history (the store's history index *is* the version number), so
            # pick up at the recorded version instead of re-registering from
            # configuration.  recover_runs() replay stays safe against this:
            # its new_version == version + 1 guard no-ops on a version the
            # resume already restored.
            resumed_version = state_store.version_count(object_id) - 1
            with self._lock:
                shared.version = resumed_version
                shared.state = codec.canonicalize(
                    state_store.state_at_version(object_id, resumed_version)
                )
        else:
            state_store.record_version(object_id, shared.state)
        details: Dict[str, Any] = {
            "event": "object-registered",
            "members": sorted(member_uris),
        }
        if resumed_version is not None:
            details["event"] = "object-resumed"
            details["resumed_version"] = resumed_version
        self._coordinator.services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=object_id,
            details=details,
        )

    def add_validator(self, object_id: str, validator: StateValidator) -> None:
        """Attach an application-specific validation listener to an object."""
        self._shared(object_id).validators.add(validator)

    def bind_component(self, object_id: str, instance: Any) -> None:
        """Bind a local entity component whose state mirrors the replica.

        The instance must expose ``get_state()`` / ``set_state(state)``; the
        controller pushes agreed state into it so that the component and the
        replica can never diverge.
        """
        for required in ("get_state", "set_state"):
            if not callable(getattr(instance, required, None)):
                raise CoordinationError(
                    f"component bound to {object_id!r} must implement {required}()"
                )
        shared = self._shared(object_id)
        with self._lock:
            shared.bound_instance = instance
            instance.set_state(shared.state_copy())

    # -- queries --------------------------------------------------------------------

    def _shared(self, object_id: str) -> _SharedObject:
        with self._lock:
            try:
                return self._objects[object_id]
            except KeyError:
                raise CoordinationError(
                    f"{self.party!r} does not share an object {object_id!r}"
                ) from None

    def is_shared(self, object_id: str) -> bool:
        with self._lock:
            return object_id in self._objects

    def object_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._objects)

    def get_state(self, object_id: str) -> Any:
        """Return (a copy of) the current agreed state of the object."""
        return self._shared(object_id).state_copy()

    def get_version(self, object_id: str) -> int:
        return self._shared(object_id).version

    def state_digest(self, object_id: str) -> bytes:
        """Digest of the current agreed state (comparable across parties)."""
        return payload_digest(self._shared(object_id).state)

    def members(self, object_id: str) -> List[str]:
        return self.membership.member_uris(object_id)

    def peers(self, object_id: str) -> List[str]:
        return sorted(self.membership.peers_of(object_id, self.party))

    # -- reservations: at most one pending run per object ------------------------------

    def _reserve(
        self,
        object_id: str,
        run_id: str,
        proposer: str,
        proposal: Any,
        proposal_digest: bytes,
        base_version: Optional[int] = None,
    ) -> Optional[str]:
        """Reserve ``object_id`` for ``run_id``; returns why not, or ``None``.

        Refused while another run holds the object (``busy: <run>``) or when
        ``base_version`` is no longer the replica's version.  A reservation
        older than the orphan timeout is released first, audited
        ``orphan-run-expired``: its proposer vanished without an outcome.
        """
        now = self._coordinator.network.clock.now()
        expired = refusal = None
        with self._lock:
            shared = self._objects.get(object_id)
            if shared is None:
                return f"{self.party} does not share {object_id}"
            held = shared.reservation
            if held is not None and held.run_id != run_id:
                if now - held.reserved_at <= self._reservation_timeout:
                    return f"busy: {held.run_id}"
                expired, shared.reservation = held, None
            if base_version is not None and base_version != shared.version:
                refusal = f"{STALE_BASE} {base_version} (current is {shared.version})"
            else:
                members = self.membership.member_uris(object_id)
                shared.reservation = _Reservation(
                    run_id, proposer, proposal, proposal_digest, members, now
                )
        if expired is not None:
            self._coordinator.services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=expired.run_id,
                details={"event": "orphan-run-expired", "object_id": object_id,
                         "proposer": expired.proposer, "timeout": self._reservation_timeout},
            )
        return refusal

    def _release_reservation(
        self, object_id: str, run_id: str, proposer: Optional[str] = None
    ) -> Optional[_Reservation]:
        """Drop ``run_id``'s reservation (only if ``proposer`` holds it, when given)."""
        with self._lock:
            shared = self._objects.get(object_id)
            held = shared.reservation if shared is not None else None
            if held is None or held.run_id != run_id or proposer not in (None, held.proposer):
                return None
            shared.reservation = None
            return held

    def held_reservations(self) -> List[str]:
        """Run ids holding one of this replica's objects (sorted)."""
        with self._lock:
            return sorted(s.reservation.run_id for s in self._objects.values() if s.reservation)

    # -- proposing updates -------------------------------------------------------------

    def propose_update(self, object_id: str, new_state: Any) -> SharingOutcome:
        """Propose ``new_state`` for ``object_id`` and coordinate agreement.

        Returns the :class:`SharingOutcome`; the update is applied locally
        (and at every peer) only when agreement was unanimous.
        """
        return self.propose_update_async(object_id, new_state).result()

    def propose_update_async(
        self, object_id: str, new_state: Any, deadline: Optional[float] = None
    ) -> RunFuture:
        """Start a coordination round; returns its :class:`RunFuture`.

        On a healthy network the future is resolved on return; a run that
        has to wait for delivery retries occupies no thread while it waits
        (see :meth:`_CoordinationRun.start`), so arbitrarily many runs
        can be in flight at once.  ``deadline`` (seconds)
        aborts a run that has not settled in time: its pending delivery
        retries are withdrawn and the future completes with
        ``agreed=False``.  A run whose outcome fan-out was already
        dispatched is past aborting (the collective decision is out at the
        peers) and completes normally even if the deadline fires.
        """
        deferred = self._rollup_deferred(object_id, new_state)
        if deferred is not None:
            future = RunFuture(
                deferred.run_id, self._coordinator.network.retry_scheduler
            )
            future.complete(deferred)
            return future
        return _UpdateRun(self, object_id, new_state, deadline=deadline).start()

    def _rollup_deferred(
        self, object_id: str, new_state: Any
    ) -> Optional[SharingOutcome]:
        """Inside a rollup: defer coordination, just update the tentative state."""
        shared = self._shared(object_id)
        if shared.rollup_depth == 0:
            return None
        with self._lock:
            shared.state = new_state
        return SharingOutcome(
            run_id="(rollup-deferred)",
            object_id=object_id,
            agreed=True,
            new_version=shared.version,
            proposer=self.party,
            reason="deferred until rollup completes",
        )

    def apply_change(
        self, object_id: str, mutator: Callable[[Any], Any]
    ) -> SharingOutcome:
        """Propose the state produced by applying ``mutator`` to the current state."""
        current = self.get_state(object_id)
        new_state = mutator(current)
        if new_state is None:
            new_state = current
        return self.propose_update(object_id, new_state)

    def _verify_decision(
        self,
        run_id: str,
        peer: str,
        proposal_payload: Dict[str, Any],
        response: B2BProtocolMessage,
    ) -> tuple:
        """Verify a peer's decision message; invalid evidence counts as a veto."""
        payload = response.payload or {}
        token = response.token_of_type(TokenType.NR_DECISION.value)
        if token is None:
            reason = "peer returned no decision evidence"
        else:
            try:
                self._coordinator.services.evidence_verifier.require_valid(
                    token,
                    expected_type=TokenType.NR_DECISION,
                    expected_run_id=run_id,
                    expected_payload=payload,
                    expected_issuer=peer,
                )
            except EvidenceVerificationError as error:
                reason = f"decision evidence invalid: {error}"
            else:
                accepted = bool(payload.get("accepted", False))
                reason, validator = payload.get("reason", ""), payload.get("validator", peer)
                return ValidationDecision(accepted, reason, validator), token
        return ValidationDecision(accepted=False, reason=reason, validator="coordinator"), None

    # -- applying agreed updates ----------------------------------------------------------

    def _apply_update(
        self, object_id: str, new_state: Any, new_version: int, run_id: str, outcome: Any
    ) -> bool:
        """Make ``new_state`` the agreed ``new_version``, if that is the next one.

        An apply that lost a race -- a late wave, or a proposer whose own
        version a peer's catch-up already brought it -- changes nothing.
        """
        agreed_state = codec.canonicalize(new_state)
        with self._lock:
            shared = self._objects.get(object_id)
            if shared is None or new_version != shared.version + 1:
                return False
            shared.state = agreed_state
            shared.version = new_version
            # Whatever run still held the object proposed at an older base.
            shared.reservation = None
            if shared.bound_instance is not None:
                shared.bound_instance.set_state(shared.state_copy())
            # Snapshot, history entry and the compact outcome record: one
            # write, made under the lock so resync_records reads the version
            # and the history as one.
            self._coordinator.services.state_store.record_version(
                object_id,
                agreed_state,
                outcome_version=new_version,
                outcome_record={"run_id": run_id, "outcome": outcome},
            )
        return True

    def revert_component_state(self, object_id: str) -> None:
        """Push the agreed replica state back into the bound component."""
        shared = self._shared(object_id)
        with self._lock:
            if shared.bound_instance is not None:
                shared.bound_instance.set_state(shared.state_copy())

    # -- rollup -------------------------------------------------------------------------

    @contextmanager
    def rollup(self, object_id: str) -> Iterator[None]:
        """Roll several operations into a single coordination event.

        "Optionally, the application programmer may specify that a method in
        the application interface should result in a series of operations on
        an underlying B2BObject bean being rolled-up into a single
        coordination event." (Section 4.3.)
        """
        shared = self._shared(object_id)
        with self._lock:
            if shared.rollup_depth == 0:
                shared.rollup_base_state = shared.state_copy()
            shared.rollup_depth += 1
        try:
            yield
        except Exception:
            with self._lock:
                shared.rollup_depth -= 1
                if shared.rollup_depth == 0:
                    shared.state = shared.rollup_base_state
                    shared.rollup_base_state = None
                    self.revert_component_state(object_id)
            raise
        with self._lock:
            shared.rollup_depth -= 1
            finished = shared.rollup_depth == 0
            tentative_state = shared.state_copy()
            base_state = shared.rollup_base_state
        if not finished:
            return
        with self._lock:
            # Coordination happens against the pre-rollup agreed state.
            shared.state = base_state
            shared.rollup_base_state = None
        outcome = self.propose_update(object_id, tentative_state)
        if not outcome.agreed:
            self.revert_component_state(object_id)
            outcome.require_agreed()

    def in_rollup(self, object_id: str) -> bool:
        return self._shared(object_id).rollup_depth > 0

    # -- membership (connect / disconnect protocols) -----------------------------------------

    def connect_member(self, object_id: str, new_member: str) -> SharingOutcome:
        """Run the non-repudiable connect protocol to admit ``new_member``."""
        return self.connect_member_async(object_id, new_member).result()

    def disconnect_member(self, object_id: str, member: str) -> SharingOutcome:
        """Run the non-repudiable disconnect protocol to remove ``member``."""
        return self.disconnect_member_async(object_id, member).result()

    def connect_member_async(
        self, object_id: str, new_member: str, deadline: Optional[float] = None
    ) -> RunFuture:
        """Start the connect protocol; returns its :class:`RunFuture`.

        ``deadline`` is the membership-change expiry: a connect that has not
        settled in time aborts as not-agreed instead of parking a thread.
        """
        return _MembershipRun(
            self, object_id, "connect", new_member, deadline=deadline
        ).start()

    def disconnect_member_async(
        self, object_id: str, member: str, deadline: Optional[float] = None
    ) -> RunFuture:
        """Start the disconnect protocol (see :meth:`connect_member_async`)."""
        return _MembershipRun(
            self, object_id, "disconnect", member, deadline=deadline
        ).start()

    def _apply_membership_change(self, object_id: str, action: str, member: str) -> None:
        if action == "connect":
            if not self.membership.is_member(object_id, member):
                self.membership.connect(object_id, Member(uri=member))
        else:
            if self.membership.is_member(object_id, member):
                self.membership.disconnect(object_id, member)
            if member == self.party and self.is_shared(object_id):
                with self._lock:
                    self._objects.pop(object_id, None)

    # -- durability: crash recovery, orphan expiry, abort notices ---------------------------

    @property
    def run_journal(self) -> Optional[RunJournal]:
        return self._coordinator.services.run_journal

    def recover_runs(self) -> Dict[str, str]:
        """Replay the run journal after a restart; returns ``run_id -> action``.

        A run journaled past the commit barrier is *resumed*: its outcome
        wave is re-dispatched verbatim (original per-recipient message ids,
        so peers that already processed it deduplicate) and its local apply
        re-driven -- peers may already hold the outcome, so aborting would
        diverge the replicas.  A run that never reached the barrier is
        *aborted*: no peer can have applied anything, so the recovering
        proposer settles it as not-agreed and sends every wave member an
        explicit :class:`RunAbortNotice` instead of leaving them to wait out
        the orphan expiry.  Idempotent: each recovered run gains a settled
        journal record, so a second call finds nothing open.
        """
        journal = self.run_journal
        if journal is None:
            return {}
        actions: Dict[str, str] = {}
        with storage.step():
            for record in journal.open_runs():
                if record.phase == PHASE_COMMITTED:
                    self._recover_resume(record)
                    actions[record.run_id] = "resumed"
                else:
                    self._recover_abort(record)
                    actions[record.run_id] = "aborted"
        return actions

    def _recover_resume(self, record: JournaledRun) -> None:
        """Drive a crashed-but-committed run to completion."""
        services = self._coordinator.services
        committed = record.committed or {}
        proposed = record.proposed or {}
        run_id = record.run_id
        nr_outcome = EvidenceToken.from_dict(
            dict(committed["nr_outcome"]), revived=True
        )
        # The commit record is written before _on_committed persists the
        # token, so the crash may or may not have left it in the store.
        stored_outcomes = services.evidence_store.tokens_of_type(
            run_id, nr_outcome.token_type
        )
        if not any(
            stored.role == services.evidence_store.ROLE_GENERATED
            for stored in stored_outcomes
        ):
            services.evidence_store.store(
                run_id=run_id,
                token_type=nr_outcome.token_type,
                token=nr_outcome,
                role=services.evidence_store.ROLE_GENERATED,
            )
        # The peers' decision evidence was persisted during phase 2 (before
        # the barrier), so the resent wave can forward it like the original.
        decision_tokens = [
            EvidenceToken.from_stored(stored)
            for stored in services.evidence_store.tokens_of_type(
                run_id, TokenType.NR_DECISION.value
            )
            if stored.role == services.evidence_store.ROLE_RECEIVED
        ]
        recipients = list(committed.get("recipients") or [])
        message_ids = dict(committed.get("message_ids") or {})
        attributes = dict(committed.get("attributes") or {})
        messages = [
            B2BProtocolMessage(
                run_id=run_id,
                protocol=NR_SHARING_PROTOCOL,
                step=int(committed.get("step", 3)),
                sender=self.party,
                recipient=recipient,
                payload=committed.get("payload"),
                tokens=[nr_outcome] + decision_tokens,
                attributes=attributes,
                reply_to=self._coordinator.address,
                message_id=message_ids.get(recipient) or new_unique_id("msg"),
            )
            for recipient in recipients
        ]
        errors = self._coordinator.send_all(messages) if messages else []
        apply = dict(committed.get("apply") or {})
        object_id = proposed.get("object_id", "")
        # The proposal is journaled once, with the intent: the wave does not
        # carry it.  The apply is version-guarded like handle_outcome: a
        # crash after the local apply (or a double recovery) never re-applies.
        proposal, new_version = proposed.get("proposal"), apply.get("new_version")
        applied = False
        if apply.get("agreed"):
            if "action" in apply:  # membership runs apply idempotently
                self._apply_membership_change(
                    object_id, apply["action"], apply["member"]
                )
                applied = True
            elif (
                proposal
                and self.is_shared(object_id)
                and new_version == self.get_version(object_id) + 1
                and self._proof_holds(
                    run_id, object_id, committed.get("payload"), nr_outcome, decision_tokens,
                    payload_digest(proposal), self.members(object_id), self.party,
                )
            ):
                applied = self._apply_update(
                    object_id, proposal["proposed_state"], new_version, run_id,
                    committed.get("payload"),
                )
        self._release_reservation(object_id, run_id)
        services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=run_id,
            details={
                "event": "run-recovered",
                "action": "resumed",
                "object_id": object_id,
                "agreed": bool(apply.get("agreed")),
                "applied": applied,
                "undelivered_outcomes": [
                    recipient
                    for recipient, error in zip(recipients, errors)
                    if error is not None
                ],
            },
        )
        self.run_journal.record_settled(
            run_id, agreed=bool(apply.get("agreed")), reason="resumed after crash"
        )

    def _recover_abort(self, record: JournaledRun) -> None:
        """Settle a crashed pre-commit run as dead and tell its wave so."""
        proposed = record.proposed or {}
        run_id = record.run_id
        object_id = proposed.get("object_id", "")
        reason = "recovered after crash: aborted before commit"
        peers = list(proposed.get("peers") or [])
        self._release_reservation(object_id, run_id)
        # Best-effort: an unreachable peer's own orphan expiry is the backstop.
        notices = self._abort_notices(run_id, object_id, peers, reason)
        errors = self._coordinator.send_all(notices) if notices else []
        self._coordinator.services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=run_id,
            details={
                "event": "run-recovered",
                "action": "aborted",
                "object_id": object_id,
                "reason": reason,
                "unnotified_peers": [
                    peer
                    for peer, error in zip(peers, errors)
                    if error is not None
                ],
            },
        )
        self.run_journal.record_settled(run_id, agreed=False, reason=reason)

    def _abort_notices(
        self, run_id: str, object_id: str, peers: List[str], reason: str
    ) -> List[B2BProtocolMessage]:
        notice = RunAbortNotice(
            run_id=run_id, object_id=object_id, proposer=self.party, reason=reason
        )
        return [
            B2BProtocolMessage(
                run_id=run_id,
                protocol=NR_SHARING_PROTOCOL,
                step=3,
                sender=self.party,
                recipient=peer,
                payload=notice,
                attributes={"action": ACTION_ABORT},
                reply_to=self._coordinator.address,
            )
            for peer in peers
        ]

    def handle_abort(self, message: B2BProtocolMessage) -> None:
        """Release a run its proposer aborted before the commit barrier."""
        payload = message.payload
        notice = (
            payload
            if isinstance(payload, RunAbortNotice)
            else RunAbortNotice.from_dict(dict(payload or {}))
        )
        run = self._handler.runs.get(message.run_id)
        if run is not None and run.initiator != message.sender:
            # Only the proposer that started a run may declare it dead.
            self._coordinator.services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=message.run_id,
                details={
                    "event": "abort-refused",
                    "claimed_proposer": message.sender,
                    "initiator": run.initiator,
                },
            )
            return
        self._clear_orphan_watch(message.run_id)
        self._release_reservation(notice.object_id, message.run_id, message.sender)
        if run is not None and not run.finished:
            run.abort()
        self._coordinator.services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=message.run_id,
            details={
                "event": "run-abort-received",
                "object_id": notice.object_id,
                "proposer": message.sender,
                "reason": notice.reason,
            },
        )

    def _watch_orphan_run(
        self, run_id: str, proposer: str, object_id: str
    ) -> None:
        """Start the proposal-age expiry clock for a responder-side run.

        The timer is tagged ``orphan:{party}:{run_id}`` -- *not* the bare
        run id: in a simulated network every party shares one scheduler, so
        a bare tag would let a proposer-side ``cancel_run`` (abort, settle)
        silently withdraw this responder's expiry watch, and vice versa.
        """
        timeout = self.orphan_run_timeout
        if timeout is None:
            return
        scheduler = self._coordinator.network.retry_scheduler
        with self._lock:
            if run_id in self._orphan_timers:
                return
            self._orphan_timers[run_id] = scheduler.schedule(
                timeout,
                lambda: self._expire_orphan_run(run_id, proposer, object_id),
                run_id=f"orphan:{self.party}:{run_id}",
            )

    def _clear_orphan_watch(self, run_id: str) -> None:
        with self._lock:
            handle = self._orphan_timers.pop(run_id, None)
        if handle is not None:
            handle.cancel()

    @contextmanager
    def _outcome_application(self, run_id: str) -> Iterator[None]:
        """Mark ``run_id`` as mid-apply so a racing orphan expiry cancels.

        The marker and the orphan-timer pop happen under one lock hold: an
        expiry firing concurrently either sees the marker (and cancels,
        audited) or ran to completion before the apply began -- it can never
        abort a run whose outcome is already being committed.
        """
        with self._lock:
            self._applying_outcomes.add(run_id)
            handle = self._orphan_timers.pop(run_id, None)
        if handle is not None:
            handle.cancel()
        try:
            yield
        finally:
            with self._lock:
                self._applying_outcomes.discard(run_id)

    def _expire_orphan_run(
        self, run_id: str, proposer: str, object_id: str
    ) -> None:
        with self._lock:
            self._orphan_timers.pop(run_id, None)
            applying = run_id in self._applying_outcomes
        if applying:
            # The "orphaned" run's outcome arrived after all and is being
            # applied right now: expiring it would abort an
            # already-committed run.  Cancel the expiry instead, audited.
            self._coordinator.services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=run_id,
                details={
                    "event": "orphan-expiry-cancelled",
                    "object_id": object_id,
                    "proposer": proposer,
                    "reason": "outcome application in progress",
                },
            )
            return
        run = self._handler.runs.get(run_id)
        if run is None or run.finished:
            return
        run.abort()
        self._coordinator.services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=run_id,
            details={
                "event": "orphan-run-expired",
                "object_id": object_id,
                "proposer": proposer,
                "timeout": self.orphan_run_timeout,
            },
        )

    def pending_orphan_watches(self) -> List[str]:
        """Run ids whose orphan expiry clock is still ticking (sorted)."""
        with self._lock:
            return sorted(self._orphan_timers)

    # -- proposer outcome re-delivery ------------------------------------------------

    def _schedule_redelivery(
        self,
        run_id: str,
        object_id: str,
        new_version: Optional[int],
        messages: List[B2BProtocolMessage],
    ) -> None:
        """Queue an undelivered outcome wave for scheduler-driven re-delivery.

        Fires on the network's :class:`RetryScheduler` with exponential
        backoff: re-delivery stops when every peer has acknowledged its
        message, when (for agreed updates) the object has advanced past
        ``new_version``, or after ``REDELIVERY_MAX_ATTEMPTS`` attempts --
        audited ``outcome-redelivery-abandoned``, so a peer that is gone for
        good holds no timer.  A straggler it never reached catches itself up
        (:meth:`catch_up`).  Peers whose circuit breaker is open are skipped
        for the attempt rather than burned against the half-open probe
        budget.  Re-sent messages keep their original message ids, so a
        peer the journal recovery or a duplicate attempt already reached
        dedups them.
        """
        if not messages:
            return
        with self._lock:
            if run_id in self._redeliveries:
                return
            self._redeliveries[run_id] = {
                "object_id": object_id,
                "new_version": new_version,
                "pending": {
                    message.recipient: message for message in messages
                },
                "attempts": 0,
                # Parent context for the per-attempt ``redeliver`` spans:
                # captured here (still inside the run's activation) because
                # the attempts themselves fire on scheduler/executor threads
                # with unrelated ambient context.
                "trace_parent": _tracing.current_ctx()
                if _OBS.tracing is not None
                else None,
            }
        self._coordinator.services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=run_id,
            details={
                "event": "outcome-redelivery-scheduled",
                "object_id": object_id,
                "peers": sorted(message.recipient for message in messages),
            },
        )
        self._arm_redelivery(run_id, 0)

    def _arm_redelivery(self, run_id: str, attempts: int) -> bool:
        """Arm attempt ``attempts + 1``; past the budget, drop the task instead."""
        scheduler = self._coordinator.network.retry_scheduler
        with self._lock:
            task = self._redeliveries.get(run_id)
            if task is None or run_id in self._redelivery_timers:
                return True
            if attempts < REDELIVERY_MAX_ATTEMPTS:
                # Tagged like the orphan watch: party-qualified so one shared
                # scheduler (simulated networks) never cross-cancels.
                self._redelivery_timers[run_id] = scheduler.schedule(
                    min(REDELIVERY_BASE_DELAY * (2**attempts), REDELIVERY_MAX_DELAY),
                    lambda: self._fire_redelivery(run_id),
                    run_id=f"redeliver:{self.party}:{run_id}",
                )
                return True
            del self._redeliveries[run_id]
        self._coordinator.services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=run_id,
            details={"event": "outcome-redelivery-abandoned", "object_id": task["object_id"],
                     "attempts": attempts, "unacked_peers": sorted(task["pending"])},
        )
        return False

    def _fire_redelivery(self, run_id: str) -> None:
        with self._lock:
            self._redelivery_timers.pop(run_id, None)
            task = self._redeliveries.get(run_id)
            if task is None:
                return
            object_id = task["object_id"]
            new_version = task["new_version"]
            pending = dict(task["pending"])
            attempts = task["attempts"]
            trace_parent = task.get("trace_parent")
        tracer = _OBS.tracing
        span = None
        if tracer is not None:
            span = tracer.start_span(
                "redeliver",
                trace_id=run_id,
                parent=trace_parent,
                use_ambient_parent=False,
                attributes={"attempt": attempts + 1, "object_id": object_id},
            )
        if (
            new_version is not None
            and self.is_shared(object_id)
            and self._shared(object_id).version > new_version
        ):
            # The object advanced past this outcome; a straggler can no
            # longer apply it (version guard) and catches up via resync,
            # which serves the newer versions too.
            with self._lock:
                self._redeliveries.pop(run_id, None)
            self._coordinator.services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=run_id,
                details={
                    "event": "outcome-redelivery-superseded",
                    "object_id": object_id,
                    "new_version": new_version,
                    "unacked_peers": sorted(pending),
                },
            )
            if span is not None:
                span.end("superseded")
            return
        # Peers whose breaker is open sit this attempt out (an empty fan-out
        # completes at once and only counts the attempt).
        breaker = getattr(self._coordinator.network, "circuit_breaker", None)
        sendable = [
            message
            for peer, message in sorted(pending.items())
            if breaker is None or breaker.state(peer) != BREAKER_STATE_OPEN
        ]
        recipients = [message.recipient for message in sendable]
        with _span_scope(span):  # stamp the resent messages with this attempt
            fan_out = self._coordinator.send_all_async(sendable)
        fan_out.add_done_callback(
            lambda _fo: self._redelivery_done(run_id, recipients, fan_out, span)
        )

    def _redelivery_done(
        self, run_id: str, recipients: List[str], fan_out, span=None
    ) -> None:
        errors = fan_out.errors()
        delivered = [
            peer for peer, error in zip(recipients, errors) if error is None
        ]
        with self._lock:
            task = self._redeliveries.get(run_id)
            if task is None:
                if span is not None:
                    span.end("cancelled")
                return
            for peer in delivered:
                task["pending"].pop(peer, None)
            task["attempts"] += 1
            attempts = task["attempts"]
            object_id = task["object_id"]
            remaining = sorted(task["pending"])
            if not remaining:
                self._redeliveries.pop(run_id, None)
        audit = self._coordinator.services.audit_log
        with _span_scope(span):  # correlate the re-delivery audits
            if delivered:
                audit.append(
                    category=AUDIT_CATEGORY_SHARING,
                    subject=run_id,
                    details={"event": "outcome-redelivered", "object_id": object_id,
                             "peers": delivered, "unacked_peers": remaining},
                )
            if remaining:
                armed = self._arm_redelivery(run_id, attempts)
                if span is not None:
                    span.end("retry" if armed else "abandoned")
                return
            audit.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=run_id,
                details={"event": "outcome-redelivery-complete", "object_id": object_id},
            )
        if span is not None:
            span.end("ok")

    def pending_redeliveries(self) -> List[str]:
        """Run ids with an outcome wave still awaiting re-delivery (sorted)."""
        with self._lock:
            return sorted(self._redeliveries)

    # -- catch-up: resync (anti-entropy) -------------------------------------------

    def resync_records(
        self, object_id: str, from_version: int
    ) -> List[Dict[str, Any]]:
        """Signed catch-up records for every agreed version above ``from_version``.

        Serves ``from_version + 1 .. current`` in order, each rebuilt from
        what the replica keeps anyway: the version's compact ``{run_id,
        outcome}`` record, the snapshot agreed as that version (the
        proposal's state; the other proposal fields come from the outcome)
        and, of the run's evidence, the tokens that prove the outcome
        (:func:`~repro.core.agreement.proving_tokens`).  Stops at
        the first version without a record (a membership bootstrap, or a
        restart without durable state): anything past the gap would fail
        the receiver's version guard anyway.
        """
        if not self.is_shared(object_id):
            return []
        services = self._coordinator.services
        state_store, evidence_store = services.state_store, services.evidence_store
        with self._lock:
            current = self._shared(object_id).version
            # The last history entry is the current version; a member that
            # joined later started its history at the version it joined at.
            first = current + 1 - state_store.version_count(object_id)
        records: List[Dict[str, Any]] = []
        for version in range(max(from_version, first) + 1, current + 1):
            stored = state_store.outcome_record(object_id, version) or {}
            outcome, run_id = stored.get("outcome"), str(stored.get("run_id"))
            if outcome is None:
                break
            nr_outcome, decisions = proving_tokens(
                run_id, outcome, (record.token for record in evidence_store.evidence_for_run(run_id))
            )
            if nr_outcome is None:
                break
            fields = codec.unwrap(outcome)
            proposal = {key: fields.get(key) for key in ("object_id", "proposer", "base_version")}
            proposal["proposed_state"] = state_store.state_at_version(object_id, version - first)
            records.append({
                "run_id": run_id, "proposer": fields.get("proposer"),
                "object_id": fields.get("object_id"), "new_version": fields.get("new_version"),
                "outcome": outcome, "proposal": proposal,
                "nr_outcome": dict(nr_outcome), "decisions": [dict(token) for token in decisions],
            })
        return records

    def apply_resync_record(self, record: Dict[str, Any]) -> bool:
        """Apply one signature-checked catch-up record from a fresher peer.

        Exactly the live :meth:`handle_outcome` discipline, replayed from a
        peer's store: the record's outcome must pass
        :func:`~repro.core.agreement.agreement_proof` for the proposal it
        carries and the current members, the apply is version-guarded
        (``new_version == version + 1``), evidence lands with the same roles
        a live wave would produce, and the apply writes this replica's own
        outcome record, so a transitively-stale third peer can pull the
        version from here later.  Returns ``True`` when the record advanced
        the replica; one that does not decode, revive or prove is audited
        ``resync-rejected`` -- the replica stays at its last good version.
        """
        try:
            object_id, new_version = record["object_id"], record["new_version"]
            if not self.is_shared(object_id) or new_version != self.get_version(object_id) + 1:
                return False
            run_id, proposer, proposal = str(record["run_id"]), record["proposer"], record["proposal"]
            digest, new_state = payload_digest(proposal), proposal["proposed_state"]
            # Served tokens are revived dictionaries (EvidenceToken.from_stored).
            nr_outcome, *decisions = (
                EvidenceToken.from_dict(dict(token), revived=True)
                for token in [record["nr_outcome"], *record["decisions"]]
            )
        except Exception as error:  # noqa: BLE001 - whatever a peer served
            run_id = record.get("run_id") if isinstance(record, dict) else None
            self._coordinator.services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=str(run_id or "resync"),
                details={"event": "resync-rejected", "reason": f"malformed record: {error!r}"},
            )
            return False
        members, evidence_store = self.members(object_id), self._coordinator.services.evidence_store
        if not self._proof_holds(
            run_id, object_id, record.get("outcome"), nr_outcome, decisions,
            digest, members, proposer, event="resync-rejected",
        ):
            return False
        # The resync apply joins the original run's trace (trace id == run
        # id) as a second root: the proposer's tree ended long ago in
        # another process, so there is no parent to attach to.
        tracer = _OBS.tracing
        span = None
        if tracer is not None:
            span = tracer.start_span(
                "resync:apply",
                trace_id=run_id,
                use_ambient_parent=False,
                attributes={
                    "object_id": object_id,
                    "new_version": new_version,
                    "party": self.party,
                },
            )
        applied = False
        try:
            with _span_scope(span), storage.step():
                with self._outcome_application(run_id):
                    # Re-check under the marker: a live (re-)delivered outcome
                    # for the same version racing this resync must win exactly
                    # once.
                    if new_version != self._shared(object_id).version + 1:
                        return False
                    # Like a live wave, never a second copy of its own decision.
                    held = evidence_store.tokens_of_type(run_id, TokenType.NR_DECISION.value)
                    skip = {proposer} | ({r.token.get("issuer") for r in held} & {self.party})
                    kept = [t for t in decisions if t.issuer not in skip and t.issuer in members]
                    self._store_received(run_id, [nr_outcome] + kept)
                    self._apply_update(object_id, new_state, new_version, run_id, record["outcome"])
                self._coordinator.services.audit_log.append(
                    category=AUDIT_CATEGORY_SHARING,
                    subject=run_id,
                    details={
                        "event": "resync-applied",
                        "object_id": object_id,
                        "new_version": new_version,
                        "proposer": proposer,
                    },
                )
                applied = True
                return True
        finally:
            if span is not None:
                span.end("ok" if applied else "skipped")

    def catch_up(self, object_id: str, peer: str) -> int:
        """Pull and apply the versions of ``object_id`` that ``peer`` is ahead by.

        One sharing-protocol request through the coordinator, so it works
        on either transport.  The request names this replica's version and
        digest and carries its signed ``NRO_CATCH_UP`` token: the peer
        answers with its :meth:`resync_records` past that version only if
        the token proves the request comes from a current member.  Each
        record is applied through :meth:`apply_resync_record`.  Best
        effort: an unreachable peer applies nothing.  Returns the number of
        versions applied.
        """
        if peer == self.party or not self.is_shared(object_id):
            return 0
        run_id = new_unique_id("catch-up")
        payload = {"object_id": object_id, "from_version": self.get_version(object_id),
                   "digest": self.state_digest(object_id).hex()}
        request = B2BProtocolMessage(
            run_id=run_id, protocol=NR_SHARING_PROTOCOL, step=1,
            sender=self.party, recipient=peer, attributes={"action": ACTION_CATCH_UP},
            payload=payload, reply_to=self._coordinator.address,
            tokens=[self._coordinator.services.evidence_builder.build(
                TokenType.NRO_CATCH_UP, run_id, 1, peer, payload
            )],
        )
        try:
            reply = self._coordinator.request(request)
            records = list(reply.payload["records"])
        except (ReproError, AttributeError, KeyError, TypeError) as error:  # no reply, or garbage
            self._coordinator.services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=object_id,
                details={"event": "catch-up-failed", "peer": peer, "error": str(error)},
            )
            return 0
        return sum(self.apply_resync_record(record) for record in records)

    def _serve_catch_up(self, message: B2BProtocolMessage) -> B2BProtocolMessage:
        """Answer a member's signed :meth:`catch_up` request with its missing records.

        Anyone else -- an unsigned or forged request, a non-member -- gets
        an empty answer.  A member at this replica's version with another
        digest is audited ``resync-divergence``: catch-up only ever
        advances a replica, it never overwrites one.
        """
        request, sender = message.payload, message.sender
        token = message.token_of_type(TokenType.NRO_CATCH_UP.value)
        try:
            if token is None or token.recipient != self.party:
                raise EvidenceVerificationError("no catch-up token addressed to this party")
            self._coordinator.services.evidence_verifier.require_valid(
                token, expected_type=TokenType.NRO_CATCH_UP, expected_run_id=message.run_id,
                expected_payload=request, expected_issuer=sender,
            )
            object_id, version = request["object_id"], int(request["from_version"])
            member = self.is_shared(object_id) and self.membership.is_member(object_id, sender)
        except (ReproError, KeyError, TypeError, ValueError):  # whatever a caller sent
            object_id, member = None, False
        records = self.resync_records(object_id, version) if member else []
        if member and version == self.get_version(object_id):
            digest = str(request.get("digest"))
            if digest != self.state_digest(object_id).hex():
                self.note_resync_divergence(object_id, sender, version, digest)
        return B2BProtocolMessage(
            run_id=message.run_id, protocol=NR_SHARING_PROTOCOL, step=2,
            sender=self.party, recipient=message.sender, attributes={"action": ACTION_CATCH_UP},
            payload={"object_id": object_id, "records": records},
            reply_to=self._coordinator.address,
        )

    def note_resync_divergence(
        self, object_id: str, peer: str, version: int, remote_digest: str
    ) -> None:
        """Audit a same-version digest mismatch a catch-up request revealed.

        Converge-never-diverge: resync only ever *advances* a replica along
        the agreed history, so two replicas disagreeing at the *same*
        version is evidence of corruption or misbehaviour -- recorded for
        dispute resolution, never papered over by overwriting state.
        """
        self._coordinator.services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=object_id,
            details={
                "event": "resync-divergence",
                "peer": peer,
                "version": version,
                "local_digest": self.state_digest(object_id).hex(),
                "remote_digest": remote_digest,
            },
        )

    # -- handling incoming protocol messages (called by the handler) ----------------------------

    def handle_proposal(self, message: B2BProtocolMessage) -> B2BProtocolMessage:
        """Validate a remote party's proposed update and return a signed decision."""
        services = self._coordinator.services
        proposal = message.payload
        object_id = proposal["object_id"]
        nro_update = message.require_token(TokenType.NRO_UPDATE.value)
        digest = payload_digest(proposal)

        decision: ValidationDecision
        try:
            services.evidence_verifier.require_valid(
                nro_update,
                expected_type=TokenType.NRO_UPDATE,
                expected_run_id=message.run_id,
                expected_payload=digest,
                expected_issuer=message.sender,
            )
        except EvidenceVerificationError as error:
            decision = ValidationDecision(
                accepted=False, reason=f"origin evidence invalid: {error}", validator="controller"
            )
        else:
            self._store_received(message.run_id, [nro_update])
            base = proposal.get("base_version")
            if type(base) is int and self.is_shared(object_id) and base > self.get_version(object_id):
                # Missed a version the proposer holds: catch up from it before
                # deciding (applying clears a stale reservation).
                self.catch_up(object_id, message.sender)
            decision = self._validate_proposal(message.sender, proposal)
            if decision.accepted:
                # Validators ran unlocked; only one accepting run per object
                # wins the reservation, at a base that is still current.
                refusal = self._reserve(
                    object_id, message.run_id, message.sender, proposal, digest,
                    base_version=proposal.get("base_version"),
                )
                if refusal is not None:
                    decision = ValidationDecision(
                        accepted=False, reason=refusal, validator="controller"
                    )

        response = self._decision_message(message, decision, digest, "decision")
        services.evidence_store.store(
            run_id=message.run_id,
            token_type=TokenType.NR_DECISION.value,
            token=response.tokens[0],
            role=services.evidence_store.ROLE_GENERATED,
        )
        if not decision.accepted:
            # An acceptance is on record as the reservation, then as however
            # the run ends (the applied version's outcome record, or an audit).
            services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING, subject=message.run_id,
                details={"event": "proposal-validated", "object_id": object_id,
                         "proposer": message.sender, "accepted": False, "reason": decision.reason},
            )
        return response

    def _decision_message(
        self,
        message: B2BProtocolMessage,
        decision: ValidationDecision,
        proposal_digest: bytes,
        action: str,
    ) -> B2BProtocolMessage:
        """Sign ``decision`` on the proposal ``message`` carried; the reply."""
        payload = decision_payload(
            message.payload["object_id"], message.run_id, self.party, decision,
            proposal_digest,
        )
        nr_decision = self._coordinator.services.evidence_builder.build(
            token_type=TokenType.NR_DECISION,
            run_id=message.run_id,
            step=2,
            recipient=message.sender,
            payload=payload,
        )
        return B2BProtocolMessage(
            run_id=message.run_id,
            protocol=NR_SHARING_PROTOCOL,
            step=2,
            sender=self.party,
            recipient=message.sender,
            payload=payload,
            tokens=[nr_decision],
            attributes={"action": action},
            reply_to=self._coordinator.address,
        )

    def _validate_proposal(self, proposer: str, proposal: Dict[str, Any]) -> ValidationDecision:
        object_id = proposal["object_id"]
        if not self.is_shared(object_id):
            return ValidationDecision(
                accepted=False,
                reason=f"{self.party} does not share {object_id}",
                validator="controller",
            )
        if not self.membership.is_member(object_id, proposer):
            return ValidationDecision(
                accepted=False,
                reason=f"{proposer} is not a member of the sharing group",
                validator="controller",
            )
        shared = self._shared(object_id)
        if proposal.get("base_version") != shared.version:
            return ValidationDecision(
                accepted=False,
                reason=(
                    f"{STALE_BASE} {proposal.get('base_version')} "
                    f"(current is {shared.version})"
                ),
                validator="controller",
            )
        context = ValidationContext(
            object_id=object_id,
            proposer=proposer,
            current_state=shared.state_copy,  # decoded if a validator reads it
            proposed_state=codec.unwrap(proposal.get("proposed_state")),
            base_version=proposal.get("base_version", 0),
        )
        return shared.validators.validate(context)

    def _proof_holds(
        self, run_id: str, object_id: str, *proof: Any, trusted: Optional[str] = None,
        event: str = "outcome-rejected",
    ) -> bool:
        """:func:`agreement_proof` for ``run_id``; a failure is audited ``event``."""
        services = self._coordinator.services
        failure = agreement_proof(services.evidence_verifier, run_id, *proof, trusted=trusted)
        if failure is not None:
            services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=run_id,
                details={"event": event, "object_id": object_id, "reason": failure},
            )
        return failure is None

    def _store_received(self, run_id: str, tokens: List[EvidenceToken]) -> None:
        store = self._coordinator.services.evidence_store
        store.store_many(run_id, [(token.token_type, token, store.ROLE_RECEIVED) for token in tokens])

    def handle_outcome(self, message: B2BProtocolMessage) -> None:
        """Apply the proposal this replica reserved, once the outcome proves it.

        Any outcome from the run's proposer ends its reservation.  An agreed
        one is applied only if :func:`~repro.core.agreement.agreement_proof`
        holds for the reserved proposal and sharing group (else it is audited
        ``outcome-rejected``); without a reservation -- a restarted replica,
        or one that never accepted -- it is audited ``outcome-unheld`` and
        the replica catches up from the sender.  Whatever of the outcome
        verifies is kept.  An applied outcome is not audited: the version's
        outcome record, written in the same step, says it.  The wave omits
        this replica's own decision; the one it signed is already stored.
        """
        outcome_payload, run_id, sender = message.payload, message.run_id, message.sender
        object_id = outcome_payload["object_id"]
        nr_outcome = message.require_token(TokenType.NR_OUTCOME.value)
        decisions = [t for t in message.tokens if t.token_type == TokenType.NR_DECISION.value]
        held = self._release_reservation(object_id, run_id, sender)
        agreed = bool(outcome_payload.get("agreed"))
        new_version = outcome_payload.get("new_version")
        event, applied, rejected_decisions = "outcome-received", False, []
        # The proof verifies the outcome and every member's decision: on the
        # happy path it is the one verification pass.
        proven = agreed and held is not None and self._proof_holds(
            run_id, object_id, outcome_payload, nr_outcome, decisions,
            held.proposal_digest, held.members, sender, trusted=self.party,
        )
        if proven:
            kept = [t for t in decisions
                    if t.issuer not in (sender, self.party) and t.issuer in held.members]
            # The outcome and the decisions behind it are written in one
            # step, before the update they justify is applied.
            self._store_received(run_id, [nr_outcome] + kept)
            applied = self._apply_update(
                object_id, held.proposal["proposed_state"], new_version, run_id, outcome_payload
            )
            event = None if applied else event
        else:
            verdicts = self._coordinator.services.evidence_verifier.verify_all(
                [(nr_outcome, {"expected_type": TokenType.NR_OUTCOME, "expected_run_id": run_id,
                               "expected_payload": outcome_payload, "expected_issuer": sender})]
                + [(token, {"expected_type": TokenType.NR_DECISION, "expected_run_id": run_id})
                   for token in decisions]
            )
            if agreed and held is not None:  # rejected, and audited, by the proof
                event = None
            elif verdicts[0] is not None:  # not the sender's outcome: refused
                raise verdicts[0]
            elif agreed and self.is_shared(object_id) and (
                new_version == self.get_version(object_id) + 1
            ):
                event = "outcome-unheld"
            tokens = [nr_outcome] + decisions
            self._store_received(run_id, [t for t, error in zip(tokens, verdicts) if error is None])
            rejected_decisions = [t.token_id for t, e in zip(decisions, verdicts[1:]) if e]
        if event is not None:
            self._coordinator.services.audit_log.append(
                category=AUDIT_CATEGORY_SHARING,
                subject=run_id,
                details={
                    "event": event,
                    "object_id": object_id,
                    "agreed": agreed,
                    "applied": applied,
                    "rejected_decisions": rejected_decisions,
                },
            )
        if event == "outcome-unheld":
            self.catch_up(object_id, sender)

    def handle_membership_proposal(self, message: B2BProtocolMessage) -> B2BProtocolMessage:
        """Validate a proposed membership change and return a signed decision."""
        services = self._coordinator.services
        proposal = message.payload
        object_id = proposal["object_id"]
        token = message.require_token(TokenType.NR_MEMBERSHIP.value)
        digest = payload_digest(proposal)
        try:
            services.evidence_verifier.require_valid(
                token,
                expected_type=TokenType.NR_MEMBERSHIP,
                expected_run_id=message.run_id,
                expected_payload=digest,
                expected_issuer=message.sender,
            )
        except EvidenceVerificationError as error:
            decision = ValidationDecision(
                accepted=False, reason=str(error), validator="controller"
            )
        else:
            if not self.is_shared(object_id):
                decision = ValidationDecision(
                    accepted=False,
                    reason=f"{self.party} does not share {object_id}",
                    validator="controller",
                )
            elif not self.membership.is_member(object_id, message.sender):
                decision = ValidationDecision(
                    accepted=False,
                    reason=f"{message.sender} is not a member",
                    validator="controller",
                )
            else:
                # A membership change holds the object like an update does.
                refusal = self._reserve(
                    object_id, message.run_id, message.sender, proposal, digest
                )
                decision = ValidationDecision(
                    accepted=refusal is None,
                    reason=refusal or "",
                    validator="controller",
                )
        return self._decision_message(message, decision, digest, "membership-decision")

    def handle_membership_outcome(self, message: B2BProtocolMessage) -> None:
        """Apply an agreed membership change (and bootstrap new members)."""
        services = self._coordinator.services
        outcome = message.payload
        object_id = outcome["object_id"]
        nr_outcome = message.require_token(TokenType.NR_OUTCOME.value)
        services.evidence_verifier.require_valid(
            nr_outcome,
            expected_type=TokenType.NR_OUTCOME,
            expected_run_id=message.run_id,
            expected_payload=outcome,
            expected_issuer=message.sender,
        )
        self._release_reservation(object_id, message.run_id, message.sender)
        if not outcome.get("agreed"):
            return
        action = outcome["membership_action"]
        member = outcome["member"]
        if action == "connect" and member == self.party and not self.is_shared(object_id):
            # Bootstrap: a newly admitted member initialises its replica from
            # the outcome message.
            proposal = message.attributes.get("proposal") or {}
            members = list(proposal.get("current_members", [])) + [self.party]
            state = message.attributes.get("object_state")
            self.register_object(object_id, state, members)
            shared = self._shared(object_id)
            shared.version = int(message.attributes.get("object_version", 0))
            return
        if self.is_shared(object_id):
            self._apply_membership_change(object_id, action, member)


class _UpdateRun(_CoordinationRun):
    """State-update coordination (propose / decide / outcome) as a run machine."""

    def __init__(
        self,
        controller: B2BObjectController,
        object_id: str,
        new_state: Any,
        deadline: Optional[float] = None,
    ) -> None:
        super().__init__(controller, object_id, new_unique_id("share"), deadline)
        self._shared = controller._shared(object_id)  # noqa: SLF001 - same module
        self._new_state = new_state
        self._base_version = 0
        self._new_version: Optional[int] = None
        self._outcome_payload: Any = None

    _journal_kind = "update"

    def _journal_commit_apply(self) -> Dict[str, Any]:
        return {
            "agreed": self._agreed,
            "new_version": self._new_version,
        }

    def _phase1_messages(self) -> List[B2BProtocolMessage]:
        controller = self._controller
        for attempt in range(2):
            self._base_version = self._shared.version
            # Encode once: the proposed state and the proposal envelope are
            # canonicalised here and their (bytes, digest, size) shared by
            # every evidence token, per-peer message and traffic account
            # downstream.
            self._proposal = codec.canonicalize(
                {
                    "object_id": self.object_id,
                    "proposer": controller.party,
                    "base_version": self._base_version,
                    "proposed_state": codec.canonicalize(self._new_state),
                }
            )
            if self._reserved(self._base_version):  # re-checked under the object lock
                break
            # Held by another party's run: if its outcome never reached this
            # replica, catching up from its proposer once clears the hold.
            held = self._shared.reservation
            if (
                attempt
                or held is None
                or held.proposer == controller.party
                or not controller.catch_up(self.object_id, held.proposer)
            ):
                return None
        # Phase 1: collect signed decisions from every peer through one
        # batched fan-out.
        self._peers = controller.peers(self.object_id)
        return self._proposal_wave(TokenType.NRO_UPDATE, ACTION_PROPOSE)

    def _phase2_messages(self, results: List) -> List[B2BProtocolMessage]:
        controller, services = self._controller, self._services
        self._collect_decisions(results)
        controller._store_received(self.run_id, [*self._decision_tokens.values()])  # noqa: SLF001
        self._new_version = self._base_version + 1 if self._agreed else None

        # Phase 2: distribute the collective decision to every member.
        outcome = codec.canonicalize(
            {
                "object_id": self.object_id,
                "proposer": controller.party,
                "agreed": self._agreed,
                "base_version": self._base_version,
                "new_version": self._new_version,
                "proposed_state_digest": self._proposal.digest.hex(),
                "decisions": {
                    party: decision.to_dict()
                    for party, decision in self._decisions.items()
                },
            }
        )
        self._nr_outcome = services.evidence_builder.build(
            token_type=TokenType.NR_OUTCOME,
            run_id=self.run_id,
            step=3,
            recipient=self.object_id,
            payload=outcome,
        )
        self._outcome_payload = outcome
        # Stored by _on_committed once the commit barrier is passed, so an
        # abort racing this continuation never leaves a generated NR_OUTCOME
        # contradicting the run's not-agreed result in the evidence store.
        # A peer already holds its own decision: it gets every other one.
        self._outcome_wave = [
            B2BProtocolMessage(
                run_id=self.run_id,
                protocol=NR_SHARING_PROTOCOL,
                step=3,
                sender=controller.party,
                recipient=peer,
                payload=outcome,
                tokens=[self._nr_outcome] + [
                    token for party, token in self._decision_tokens.items() if party != peer
                ],
                attributes={"action": ACTION_OUTCOME},
                reply_to=self._coordinator.address,
            )
            for peer in self._peers
        ]
        return [] if self._degrade(results) else self._outcome_wave

    def _on_committed(self) -> None:
        services = self._services
        services.evidence_store.store(
            run_id=self.run_id,
            token_type=self._nr_outcome.token_type,
            token=self._nr_outcome,
            role=services.evidence_store.ROLE_GENERATED,
        )

    def _finalize(self, errors: List[Optional[Exception]]) -> SharingOutcome:
        controller, services = self._controller, self._services
        # A peer that is temporarily unreachable misses the outcome
        # notification; the proposer still holds the signed outcome and every
        # decision, so the peer can recover the result later.  A
        # failed-to-validate peer cannot have agreed, so the outcome for it
        # is never an apply.
        undelivered_outcomes = (
            list(self._peers)
            if self._degraded
            else [
                peer
                for peer, error in zip(self._peers, errors)
                if error is not None
            ]
        )
        if self._agreed:
            controller._apply_update(  # noqa: SLF001
                self.object_id,
                self._proposal["proposed_state"],
                self._new_version,
                self.run_id,
                self._outcome_payload,
            )
        elif not self._degraded:
            # Peers refused a stale base: this replica missed a version.
            for peer, decision in self._decisions.items():
                if not decision.accepted and str(decision.reason).startswith(STALE_BASE):
                    if controller.catch_up(self.object_id, peer):
                        break
        if undelivered_outcomes:
            missed = set(undelivered_outcomes)
            controller._schedule_redelivery(  # noqa: SLF001
                self.run_id,
                self.object_id,
                self._new_version,
                [
                    message
                    for message in self._outcome_wave
                    if message.recipient in missed
                ],
            )
        services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=self.run_id,
            details={
                "event": "update-coordinated",
                "object_id": self.object_id,
                "agreed": self._agreed,
                "new_version": self._new_version,
                "decisions": {
                    party: decision.accepted
                    for party, decision in self._decisions.items()
                },
                "undelivered_outcomes": undelivered_outcomes,
            },
        )
        evidence = {
            TokenType.NRO_UPDATE.value: self._nro_update,
            TokenType.NR_OUTCOME.value: self._nr_outcome,
        }
        for party, token in self._decision_tokens.items():
            evidence[f"{TokenType.NR_DECISION.value}:{party}"] = token
        return SharingOutcome(
            run_id=self.run_id,
            object_id=self.object_id,
            agreed=self._agreed,
            new_version=self._new_version,
            proposer=controller.party,
            decisions=self._decisions,
            evidence=evidence,
            reason=self._reason,
        )



class _MembershipRun(_CoordinationRun):
    """Membership-change coordination (connect / disconnect) as a run machine."""

    def __init__(
        self,
        controller: B2BObjectController,
        object_id: str,
        action: str,
        member: str,
        deadline: Optional[float] = None,
    ) -> None:
        super().__init__(controller, object_id, new_unique_id("member"), deadline)
        self._shared = controller._shared(object_id)  # noqa: SLF001 - same module
        self._action = action
        self._member = member
        self._ordered_recipients: List[str] = []

    _journal_kind = "membership"

    def _journal_commit_apply(self) -> Dict[str, Any]:
        return {
            "agreed": self._agreed,
            "action": self._action,
            "member": self._member,
        }

    def _phase1_messages(self) -> List[B2BProtocolMessage]:
        controller = self._controller
        action, member = self._action, self._member
        current_members = controller.members(self.object_id)
        if action == "connect" and member in current_members:
            raise MembershipError(f"{member!r} already shares {self.object_id!r}")
        if action == "disconnect" and member not in current_members:
            raise MembershipError(f"{member!r} does not share {self.object_id!r}")

        self._proposal = codec.canonicalize(
            {
                "object_id": self.object_id,
                "proposer": controller.party,
                "membership_action": action,
                "member": member,
                "current_members": current_members,
                "state_digest": controller.state_digest(self.object_id).hex(),
                "version": self._shared.version,
            }
        )
        if not self._reserved():
            return None
        # The affected member only votes on its own disconnection, not on its
        # own admission (it is not yet part of the trust domain for connect).
        self._peers = [
            peer
            for peer in controller.peers(self.object_id)
            if peer != member or action == "disconnect"
        ]
        return self._proposal_wave(TokenType.NR_MEMBERSHIP, ACTION_MEMBERSHIP_PROPOSE)

    def _phase2_messages(self, results: List) -> List[B2BProtocolMessage]:
        controller, services = self._controller, self._services
        action, member = self._action, self._member
        self._collect_decisions(results)
        outcome = codec.canonicalize(
            {
                "object_id": self.object_id,
                "proposer": controller.party,
                "membership_action": action,
                "member": member,
                "agreed": self._agreed,
                "decisions": {p: d.to_dict() for p, d in self._decisions.items()},
            }
        )
        self._nr_outcome = services.evidence_builder.build(
            token_type=TokenType.NR_OUTCOME,
            run_id=self.run_id,
            step=3,
            recipient=self.object_id,
            payload=outcome,
        )
        recipients = set(controller.peers(self.object_id))
        if action == "connect" and self._agreed:
            recipients.add(member)
        outcome_tokens = [self._nr_outcome] + list(self._decision_tokens.values())
        self._outcome_wave = [
            B2BProtocolMessage(
                run_id=self.run_id,
                protocol=NR_SHARING_PROTOCOL,
                step=3,
                sender=controller.party,
                recipient=peer,
                payload=outcome,
                tokens=outcome_tokens,
                attributes={
                    "action": ACTION_MEMBERSHIP_OUTCOME,
                    "proposal": self._proposal,
                    "object_state": self._shared.state if action == "connect" else None,
                    "object_version": self._shared.version,
                },
                reply_to=self._coordinator.address,
            )
            for peer in sorted(recipients)
        ]
        # A vote wave that reached nobody: the outcome wave cannot either.
        if self._degrade(results):
            return []
        self._ordered_recipients = sorted(recipients)
        return self._outcome_wave

    def _finalize(self, errors: List[Optional[Exception]]) -> SharingOutcome:
        controller, services = self._controller, self._services
        action, member = self._action, self._member
        agreed = self._agreed
        for peer, error in zip(self._ordered_recipients, errors):
            if error is not None and peer == member and action == "connect":
                agreed = False
        if agreed:
            controller._apply_membership_change(  # noqa: SLF001
                self.object_id, action, member
            )
        if self._degraded:
            # A degraded membership run settles not-agreed everywhere, so
            # re-delivering its wave converges the *evidence*, never state;
            # partial membership failures keep their existing semantics (a
            # connect whose new member was unreachable already demoted to
            # not-agreed above).
            controller._schedule_redelivery(  # noqa: SLF001
                self.run_id, self.object_id, None, list(self._outcome_wave)
            )
        services.audit_log.append(
            category=AUDIT_CATEGORY_SHARING,
            subject=self.run_id,
            details={
                "event": "membership-coordinated",
                "object_id": self.object_id,
                "action": action,
                "member": member,
                "agreed": agreed,
            },
        )
        return SharingOutcome(
            run_id=self.run_id,
            object_id=self.object_id,
            agreed=agreed,
            new_version=self._shared.version,
            proposer=controller.party,
            decisions=self._decisions,
            evidence={
                TokenType.NR_MEMBERSHIP.value: self._nro_update,
                TokenType.NR_OUTCOME.value: self._nr_outcome,
            },
        )

    def _abort_context(self) -> tuple:
        return {"action": self._action, "member": self._member}, self._shared.version


class SharingProtocolHandler(B2BProtocolHandler):
    """Coordinator-facing protocol handler delegating to the controller."""

    protocol = NR_SHARING_PROTOCOL

    def __init__(self, controller: B2BObjectController) -> None:
        super().__init__()
        self._controller = controller

    def _run_for(self, message: B2BProtocolMessage) -> ProtocolRun:
        return self.runs.get_or_create(
            ProtocolRun(
                run_id=message.run_id,
                protocol=self.protocol,
                initiator=message.sender,
                responder=self._controller.party,
            )
        )

    def process_request(self, message: B2BProtocolMessage) -> B2BProtocolMessage:
        action = message.attributes.get("action")
        if action == ACTION_CATCH_UP:  # a read: no run state, safe to re-serve
            return self._controller._serve_catch_up(message)  # noqa: SLF001
        # A transport duplicate, or the sender's retry of a request whose
        # reply was lost in transit, gets the recorded response verbatim
        # instead of being re-validated, so the evidence store holds exactly
        # one NRO_UPDATE/NR_DECISION pair per proposal no matter how many
        # times the request arrives.  (If the cached response was evicted --
        # only possible under pathological duplication -- it is re-served;
        # handlers tolerate the re-store.)  Once the run settled, its replies
        # are gone and a late duplicate is refused.
        run = self._run_for(message)
        cached = run.admit_request(message)
        if cached is not None:
            return cached
        # The responder's span parents to the context the transports carried
        # over from the proposer (run root or commit span) -- the same tree no
        # matter which transport delivered the request.
        tracer = _OBS.tracing
        span = None
        if tracer is not None:
            span = tracer.start_span(
                _HANDLE_SPAN_NAMES.get(action) or "handle:%s" % action,
                trace_id=message.run_id,
                attributes={"party": self._controller.party},
            )
        try:
            with _span_scope(span):
                if action == ACTION_PROPOSE:
                    response = self._controller.handle_proposal(message)
                elif action == ACTION_MEMBERSHIP_PROPOSE:
                    response = self._controller.handle_membership_proposal(
                        message
                    )
                else:
                    raise ProtocolError(
                        f"unsupported sharing request action {action!r}"
                    )
                # The decision is about to leave with no outcome back yet:
                # start the proposal-age expiry clock so a proposer that dies
                # mid-run cannot strand this responder's run state forever.
                self._controller._watch_orphan_run(  # noqa: SLF001 - same module
                    message.run_id, message.sender, message.payload["object_id"]
                )
        except Exception:
            if span is not None:
                span.end("error")
            raise
        if span is not None:
            span.end("ok")
        run.cache_response(message.message_id, response)
        return response

    def process(self, message: B2BProtocolMessage) -> None:
        action = message.attributes.get("action")
        run = self._run_for(message)
        if not run.record_message(message):
            return
        tracer = _OBS.tracing
        span = None
        if tracer is not None:
            span = tracer.start_span(
                _HANDLE_SPAN_NAMES.get(action) or "handle:%s" % action,
                trace_id=message.run_id,
                attributes={"party": self._controller.party},
            )
        try:
            with _span_scope(span):
                if action in (ACTION_OUTCOME, ACTION_MEMBERSHIP_OUTCOME):
                    # The application marker subsumes _clear_orphan_watch (it
                    # pops the timer itself) and makes a concurrently-firing
                    # orphan expiry cancel instead of aborting the committing
                    # run.
                    with self._controller._outcome_application(  # noqa: SLF001
                        message.run_id
                    ):
                        if action == ACTION_OUTCOME:
                            self._controller.handle_outcome(message)
                        else:
                            self._controller.handle_membership_outcome(message)
                        run.complete()
                elif action == ACTION_ABORT:
                    self._controller.handle_abort(message)
                else:
                    raise ProtocolError(
                        f"unsupported sharing one-way action {action!r}"
                    )
        except Exception:
            if span is not None:
                span.end("error")
            raise
        if span is not None:
            span.end("ok")


#: Method-name prefixes treated as state mutators when no explicit list is given.
DEFAULT_MUTATOR_PREFIXES = ("set", "update", "add", "remove", "delete", "put", "apply")


class B2BObjectInterceptor(Interceptor):
    """Container interceptor trapping invocations on B2BObject entity components.

    Read-only methods pass straight through.  Mutating methods execute
    tentatively on the component, after which the resulting state is proposed
    to the sharing group; if agreement is not reached the component is rolled
    back to the previously agreed state and the invocation fails.
    """

    name = "b2b-object"

    def __init__(
        self,
        controller: B2BObjectController,
        object_id: str,
        mutator_methods: Optional[List[str]] = None,
    ) -> None:
        self._controller = controller
        self._object_id = object_id
        self._mutators = set(mutator_methods or [])

    def _is_mutator(self, method: str) -> bool:
        if self._mutators:
            return method in self._mutators
        return method.split("_")[0] in DEFAULT_MUTATOR_PREFIXES

    def invoke(
        self, invocation: Invocation, next_interceptor: NextInterceptor
    ) -> InvocationResult:
        if not self._is_mutator(invocation.method):
            return next_interceptor(invocation)

        controller = self._controller
        object_id = self._object_id
        before = controller.get_state(object_id)
        result = next_interceptor(invocation)
        if not result.succeeded:
            controller.revert_component_state(object_id)
            return result

        shared = controller._shared(object_id)  # noqa: SLF001 - same-package access
        instance = shared.bound_instance
        after = instance.get_state() if instance is not None else before
        if codec.encode(after) == codec.encode(before):
            return result
        if controller.in_rollup(object_id):
            with controller._lock:  # noqa: SLF001
                shared.state = after
            return result

        outcome = controller.propose_update(object_id, after)
        if not outcome.agreed:
            controller.revert_component_state(object_id)
            return InvocationResult(
                exception=(
                    f"update to shared object {object_id!r} was vetoed: {outcome.reason}"
                ),
                exception_type=CoordinationError.__name__,
                context={**invocation.context, "nr.sharing.run_id": outcome.run_id},
            )
        result.context = {**result.context, "nr.sharing.run_id": outcome.run_id}
        return result


class RollupInterceptor(Interceptor):
    """Session-bean interceptor rolling nested B2BObject operations into one event."""

    name = "b2b-rollup"

    def __init__(
        self,
        controller: B2BObjectController,
        object_id: str,
        rollup_methods: List[str],
    ) -> None:
        self._controller = controller
        self._object_id = object_id
        self._rollup_methods = set(rollup_methods)

    def invoke(
        self, invocation: Invocation, next_interceptor: NextInterceptor
    ) -> InvocationResult:
        if invocation.method not in self._rollup_methods:
            return next_interceptor(invocation)
        try:
            with self._controller.rollup(self._object_id):
                result = next_interceptor(invocation)
                if not result.succeeded:
                    raise CoordinationError(result.exception or "invocation failed")
        except CoordinationError as error:
            return InvocationResult(
                exception=str(error),
                exception_type=CoordinationError.__name__,
                context=dict(invocation.context),
            )
        return result


def b2b_object_interceptor_provider(
    controller: B2BObjectController,
) -> Callable[[Container, ComponentDescriptor], Optional[Interceptor]]:
    """Container deployment hook attaching B2BObject/rollup interceptors.

    Entity components with ``b2b_object`` set get a
    :class:`B2BObjectInterceptor`; session components with ``rollup_methods``
    get a :class:`RollupInterceptor`.  The object id defaults to the
    component name and can be overridden with the ``b2b_object_id`` metadata
    entry.
    """

    def provider(
        container: Container, descriptor: ComponentDescriptor
    ) -> Optional[Interceptor]:
        object_id = descriptor.metadata.get("b2b_object_id", descriptor.name)
        if descriptor.b2b_object:
            mutators = descriptor.metadata.get("mutator_methods")
            return B2BObjectInterceptor(controller, object_id, mutators)
        if descriptor.rollup_methods:
            return RollupInterceptor(controller, object_id, descriptor.rollup_methods)
        return None

    return provider
