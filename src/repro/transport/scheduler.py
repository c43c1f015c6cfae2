"""The timer heap and completion handles every reliable send runs on.

:class:`repro.transport.delivery.ReliableChannel` never sleeps through a
retry backoff: a failed attempt registers a deferred reattempt here and
returns, and whoever needs the reply waits on a completion handle.

* :class:`RetryScheduler` owns a heap of pending timers keyed on the
  network's clock (every network constructs one on its own clock).
* :class:`DeliveryFuture` is the completion handle of one scheduled send or
  one fan-out wave.  A handle nobody waits on costs a few attribute stores:
  it is resolved without touching the scheduler lock, and ``result()`` on a
  resolved handle returns at once.  Waiting on an unresolved handle *drives*
  the scheduler: the waiting thread fires due timers (its own or any other
  run's) and advances a virtual clock to the next deadline, so concurrent
  runs overlap their retry waits instead of queueing behind each other.
* :class:`TimerHandle` supports cancellation, which
  :meth:`ReliableChannel.close` uses to withdraw in-flight retries without
  leaking timers.  Timers carry an optional *run tag* so every timer
  belonging to one protocol run -- delivery retries and protocol deadlines
  alike -- can be withdrawn together with :meth:`RetryScheduler.cancel_run`
  when the run is aborted or times out.

Beyond retries, the same deadline heap schedules *protocol* timeouts: a run
deadline, a fair-exchange abort deadline, a responder's orphan-run expiry or
an outcome re-delivery is just a timer whose callback does the work, instead
of a thread parked in a wait.

Clock integration: on a *virtual* clock (``clock.virtual``) a driving thread
reaches the next deadline with the idempotent ``clock.advance_to`` -- racing
drivers advance time once, not once each.  On a wall clock the driver waits
on the scheduler condition (so a newly scheduled earlier timer or a
cancellation wakes it) and fires whatever has become due; due callbacks are
fanned out on the shared executor (:func:`repro.parallel.submit`) so one
driver can re-send over many slow links concurrently.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, List, Optional

from repro import parallel
from repro.clock import Clock
from repro.observability import tracing as _tracing
from repro.observability.runtime import STATE as _OBS

__all__ = [
    "AdvanceHold",
    "DeliveryFuture",
    "Quiescence",
    "RetryScheduler",
    "TimerHandle",
    "wait_all",
]

#: How long (wall seconds) a driver waits for other threads to make progress
#: when it has nothing due and no deadline of its own to advance to.
_IDLE_WAIT_SECONDS = 0.01

#: Upper bound on one wall-clock wait towards a deadline, so cancellations
#: and newly scheduled earlier timers are picked up promptly.
_MAX_WALL_WAIT_SECONDS = 0.05

_PENDING = "pending"
_FIRED = "fired"
_CANCELLED = "cancelled"


class TimerHandle:
    """One scheduled callback; cancellable until it fires.

    ``run_id`` tags the timer with the protocol run it belongs to (see
    :meth:`RetryScheduler.cancel_run`); ``on_cancel`` is invoked exactly once
    if the timer is withdrawn before firing, so the owner of the deferred
    work can resolve its completion future instead of leaving waiters
    hanging.
    """

    __slots__ = (
        "deadline",
        "run_id",
        "_scheduler",
        "_callback",
        "_on_cancel",
        "_state",
        "_trace_ctx",
    )

    def __init__(
        self,
        scheduler: "RetryScheduler",
        deadline: float,
        callback: Callable[[], None],
        run_id: Optional[str] = None,
        on_cancel: Optional[Callable[[], None]] = None,
        trace_ctx: Optional[Any] = None,
    ) -> None:
        self.deadline = deadline
        self.run_id = run_id
        self._scheduler = scheduler
        self._callback = callback
        self._on_cancel = on_cancel
        self._state = _PENDING
        # Ambient span context captured at scheduling time; restored around
        # the callback at fire time so retry waves, redelivery pushes and
        # deadline expiries stay attributed to the run that scheduled them.
        self._trace_ctx = trace_ctx

    def _run_callback(self) -> None:
        ctx = self._trace_ctx
        if ctx is None:
            self._callback()
        else:
            _tracing.call_in_ctx(ctx, self._callback)

    def cancel(self) -> bool:
        """Withdraw the timer; returns False when it already fired."""
        return self._scheduler._cancel(self)

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        return self._state == _FIRED


class AdvanceHold:
    """Handle of one :meth:`RetryScheduler.hold_advance`; release exactly once.

    ``with hold:`` runs the held work on the calling thread and releases the
    hold afterwards.  For the block the hold counts as the thread's own, so
    a wait nested inside the work (a relay handler waiting on a delivery of
    its own) can still drive virtual time forward instead of livelocking on
    the hold it is running under.
    """

    __slots__ = ("_scheduler",)

    def __init__(self, scheduler: "RetryScheduler") -> None:
        self._scheduler = scheduler

    def __enter__(self) -> "AdvanceHold":
        local = self._scheduler._local_holds
        local.count = getattr(local, "count", 0) + 1
        return self

    def __exit__(self, *exc: Any) -> None:
        self._scheduler._local_holds.count -= 1
        self.release()

    def release(self) -> None:
        scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler._release_hold()


class Quiescence:
    """One sample of the scheduler's quiescence criterion.

    The engine is *quiescent up to time T* when nothing can still change
    the state of any run at or before T: no timer with a deadline at or
    before T is pending, no thread holds back virtual-time advancement (a
    hold means a continuation is mid-flight and may schedule earlier
    timers), and no engine work is queued or executing on the shared
    executor.  External drivers -- a wire serve loop, a benchmark
    orchestrator, a test -- use this to *check* "the simulation reached T"
    instead of sleeping and hoping.
    """

    __slots__ = ("pending_timers", "due_timers", "advance_holds", "executor_queue_depth")

    def __init__(
        self,
        pending_timers: int,
        due_timers: int,
        advance_holds: int,
        executor_queue_depth: int,
    ) -> None:
        self.pending_timers = pending_timers
        #: Pending timers that fall within the asked-about horizon (all of
        #: them when no horizon was given).
        self.due_timers = due_timers
        self.advance_holds = advance_holds
        self.executor_queue_depth = executor_queue_depth

    @property
    def idle(self) -> bool:
        """True when nothing within the horizon can still fire or run."""
        return (
            self.due_timers == 0
            and self.advance_holds == 0
            and self.executor_queue_depth == 0
        )

    def __repr__(self) -> str:
        return (
            f"Quiescence(pending_timers={self.pending_timers}, "
            f"due_timers={self.due_timers}, advance_holds={self.advance_holds}, "
            f"executor_queue_depth={self.executor_queue_depth})"
        )


class DeliveryFuture:
    """Completion handle for one scheduled delivery (or one fan-out wave).

    Exactly one of ``complete``/``fail`` is ever called, by the retry state
    machine that owns the future.  ``result()`` drives the owning scheduler
    while waiting, so a thread blocked on its own delivery keeps the whole
    timer heap moving (see module docstring).  Waiters block on the
    scheduler's condition, so a handle carries no event of its own.
    """

    def __init__(self, scheduler: "RetryScheduler") -> None:
        self._scheduler = scheduler
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._callback_lock = threading.Lock()
        self._callbacks: List[Callable[["DeliveryFuture"], None]] = []

    def done(self) -> bool:
        return self._done

    @property
    def error(self) -> Optional[BaseException]:
        """The failure, if the delivery failed (None while pending)."""
        return self._error

    def add_done_callback(self, callback: Callable[["DeliveryFuture"], None]) -> None:
        """Invoke ``callback(self)`` once the future resolves.

        An already-resolved future fires the callback immediately on the
        calling thread; otherwise it fires on whichever thread resolves the
        future.  Callbacks are the continuation hook of the run engine --
        they must not block (offload real work with
        :func:`repro.parallel.submit`) and must trap their own exceptions.
        """
        with self._callback_lock:
            if not self._done:
                self._callbacks.append(callback)
                return
        callback(self)

    def _resolve(self, result: Any, error: Optional[BaseException]) -> None:
        with self._callback_lock:
            if self._done:
                return
            self._result = result
            self._error = error
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
        self._scheduler._wake()
        for callback in callbacks:
            callback(self)

    def complete(self, result: Any) -> None:
        self._resolve(result, None)

    def fail(self, error: BaseException) -> None:
        self._resolve(None, error)

    def result(self, timeout: Optional[float] = None) -> Any:
        """Wait for completion; raise the delivery error if it failed.

        The calling thread participates in driving timers while it waits.
        ``timeout`` is wall-clock seconds and exists as a safety net for
        tests.
        """
        if not self._done and not self._scheduler.drive_until(
            self.done, timeout=timeout
        ):
            raise TimeoutError("delivery future was not completed in time")
        if self._error is not None:
            raise self._error
        return self._result

    def outcome(self, timeout: Optional[float] = None) -> Any:
        """Like :meth:`result` but returns the stored error instead of raising.

        Only delivery failures (ordinary exceptions) are returned as values;
        ``TimeoutError`` from the safety net and interrupts
        (``KeyboardInterrupt`` etc.) still propagate.
        """
        try:
            return self.result(timeout)
        except TimeoutError:
            raise
        except Exception as error:  # noqa: BLE001 - mirror of BatchResult
            return error


def wait_all(futures: Iterable[DeliveryFuture], timeout: Optional[float] = None) -> None:
    """Drive the scheduler(s) until every future is done (errors not raised).

    ``timeout`` bounds the whole wait, shared across the set, not per future.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    for future in futures:
        if future.done():
            continue
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        future.outcome(remaining)


class RetryScheduler:
    """A deadline heap of pending retries, driven by the threads that wait.

    There is no dedicated timer thread: any thread waiting on a
    :class:`DeliveryFuture` (or calling :meth:`drive_until`) pops due timers,
    fires them, and -- on a virtual clock -- advances time to the earliest
    pending deadline.  This keeps virtual-clock runs deterministic (time
    moves only when every live thread has nothing due) and means pool
    workers that must wait for a nested delivery do useful timer work
    instead of sleeping through a backoff.
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._heap: List[tuple] = []  # (deadline, seq, TimerHandle)
        self._seq = itertools.count()
        self._pending = 0
        # Advance holds: while > 0 (excluding holds taken by the asking
        # thread itself), drivers must not advance a virtual clock -- some
        # thread is doing real work (a firing callback, a protocol
        # continuation) that may schedule an earlier timer or complete the
        # awaited future; jumping to the next heap deadline would fire
        # protocol *deadlines* over runs that are actively progressing.
        self._holds = 0
        self._local_holds = threading.local()
        # Threads inside a ``_waiting()`` section, and the holds those
        # threads are working under: a thread parked in a wait nested inside
        # its own held work is waiting, not working, so its holds must not
        # stop another driver from moving virtual time on.
        self._waiters = 0
        self._parked_holds = 0
        self.timers_scheduled = 0
        self.timers_fired = 0
        self.timers_cancelled = 0

    @property
    def clock(self) -> Clock:
        return self._clock

    # -- scheduling -------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        run_id: Optional[str] = None,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> TimerHandle:
        """Register ``callback`` to fire ``delay`` seconds from now.

        ``run_id`` tags the timer for bulk withdrawal via :meth:`cancel_run`;
        ``on_cancel`` runs (outside the scheduler lock, exactly once) if the
        timer is cancelled before it fires.
        """
        if delay < 0:
            raise ValueError("cannot schedule a timer in the past")
        trace_ctx = _tracing.current_ctx() if _OBS.tracing is not None else None
        with self._condition:
            handle = TimerHandle(
                self, self._clock.now() + delay, callback, run_id, on_cancel,
                trace_ctx=trace_ctx,
            )
            heapq.heappush(self._heap, (handle.deadline, next(self._seq), handle))
            self._pending += 1
            self.timers_scheduled += 1
            self._condition.notify_all()
            return handle

    def _cancel(self, handle: TimerHandle) -> bool:
        with self._condition:
            if handle._state != _PENDING:
                return False
            handle._state = _CANCELLED
            self._pending -= 1
            self.timers_cancelled += 1
            # Compact eagerly: a lazily discarded entry would keep the
            # callback closure (payloads, futures, the channel) referenced
            # until some later drive happened to pop past it.
            self._heap = [
                entry for entry in self._heap if entry[2]._state == _PENDING
            ]
            heapq.heapify(self._heap)
            self._condition.notify_all()  # wake drivers waiting on its deadline
        # Outside the lock: the hook typically completes a future, which
        # notifies this scheduler again (the lock is not reentrant).
        if handle._on_cancel is not None:
            handle._on_cancel()
        return True

    def cancel_run(self, run_id: str) -> int:
        """Withdraw every pending timer tagged with ``run_id``.

        The bulk-cancel path of a protocol-run abort: delivery retries and
        deadline timers belonging to the run are removed from the heap and
        their ``on_cancel`` hooks resolve the affected futures, so an aborted
        or timed-out run leaks no timers and leaves no waiter hanging.
        Returns the number of timers cancelled.  All matching timers are
        cancelled under one lock acquisition with a single heap compaction
        (per-handle ``cancel()`` would rebuild the heap once per timer);
        hooks run outside the lock, like every cancellation path.
        """
        with self._condition:
            cancelled: List[TimerHandle] = []
            for entry in self._heap:
                handle = entry[2]
                if handle.run_id == run_id and handle._state == _PENDING:
                    handle._state = _CANCELLED
                    cancelled.append(handle)
            if cancelled:
                self._pending -= len(cancelled)
                self.timers_cancelled += len(cancelled)
                self._heap = [
                    entry for entry in self._heap if entry[2]._state == _PENDING
                ]
                heapq.heapify(self._heap)
                self._condition.notify_all()
        for handle in cancelled:
            if handle._on_cancel is not None:
                handle._on_cancel()
        return len(cancelled)

    def pending_timers(self) -> int:
        """Number of live (scheduled, not yet fired or cancelled) timers."""
        with self._lock:
            return self._pending

    def pending_timers_for_run(self, run_id: str) -> int:
        """Number of live timers tagged with ``run_id`` (leak assertions)."""
        with self._lock:
            return sum(
                1
                for entry in self._heap
                if entry[2].run_id == run_id and entry[2]._state == _PENDING
            )

    def _wake(self) -> None:
        """Wake waiting drivers after a state change made outside the lock."""
        if self._waiters:
            with self._condition:
                self._condition.notify_all()

    # -- advance holds ------------------------------------------------------------

    def hold_advance(self) -> "AdvanceHold":
        """Forbid virtual-time advancement until the hold is released.

        Taken by the run engine around a run's synchronous stretches:
        between "a fan-out completed" and "the next phase registered its own
        timers", a run is working, not waiting, and a driver that advanced
        the virtual clock to the next heap deadline could expire the run's
        own deadline out from under it.  The hold may be taken on one thread
        and used (``with hold:``) on another: continuations hop to the
        executor.
        """
        with self._condition:
            self._holds += 1
        return AdvanceHold(self)

    def resume(self, work: Callable[[], None]) -> None:
        """Resume engine ``work`` that a completion callback has unblocked.

        Called on the thread that resolved the awaited delivery -- usually a
        driver in the middle of firing timers.  Where the work runs follows
        the rule of :meth:`_fire`: on a virtual clock inline, in resolution
        order (deterministic, and there is no real latency a second thread
        could overlap); on a wall clock on the shared executor, so the
        driver goes back to its timers while the work signs and sends.
        Either way the work runs under an advance hold taken here, so it
        also counts against quiescence until it is done.
        """
        hold = self.hold_advance()

        def step() -> None:
            with hold:
                work()

        if self._clock.virtual:
            step()
        else:
            parallel.submit(step)

    def _release_hold(self) -> None:
        with self._condition:
            self._holds -= 1
            self._condition.notify_all()

    def _blocked_on_work_locked(self) -> bool:
        """True when a thread that is *working* holds back virtual time.

        Asked from inside a :meth:`_waiting` section.  The holds of every
        thread parked in such a section -- the asking thread included -- are
        excluded: work nested inside held work (a relay handler inside a
        run's fan-out, a handler inside a firing callback) that waits on a
        delivery of its own can still drive time forward instead of
        livelocking on its own hold, and two such threads cannot deadlock on
        each other's.
        """
        return self._holds > self._parked_holds

    @contextmanager
    def _waiting(self) -> Iterator[None]:
        """Enter the condition as a waiter (for one check-then-wait).

        The thread is counted in ``_waiters`` *before* its last predicate
        check, both under the lock, so either it sees a state change made
        outside the lock or :meth:`_wake` sees the waiter -- a wake-up is
        never lost, and a resolve that nobody waits for stays lock-free.
        """
        mine = getattr(self._local_holds, "count", 0)
        with self._condition:
            self._waiters += 1
            self._parked_holds += mine
            try:
                yield
            finally:
                self._waiters -= 1
                self._parked_holds -= mine

    # -- quiescence ---------------------------------------------------------------

    def quiescence(self, until: Optional[float] = None) -> "Quiescence":
        """Sample the quiescence criterion (see :class:`Quiescence`).

        ``until`` bounds the horizon: timers strictly beyond it do not
        count against idleness, so ``quiescence(T).idle`` answers "has the
        simulation fully settled up to time T?".  Holds taken by the
        calling thread itself are excluded, mirroring the advance rule.
        """
        # Sample the executor BEFORE the timer/hold state: an in-flight
        # callback that schedules a timer and exits between the two samples
        # must be seen by at least one of them.  Depth-first ordering
        # guarantees that -- either the callback still counts as queued
        # work, or it finished and its timer is already on the heap.
        depth = parallel.executor_queue_depth()
        with self._lock:
            pending = self._pending
            if until is None:
                due = pending
            else:
                due = sum(
                    1
                    for entry in self._heap
                    if entry[2]._state == _PENDING and entry[2].deadline <= until
                )
            holds = self._holds - getattr(self._local_holds, "count", 0)
        return Quiescence(
            pending_timers=pending,
            due_timers=due,
            advance_holds=holds,
            executor_queue_depth=depth,
        )

    def is_quiescent(self, until: Optional[float] = None) -> bool:
        """True when nothing can still fire or run within the horizon."""
        return self.quiescence(until).idle

    def wait_quiescent(
        self, until: Optional[float] = None, timeout: Optional[float] = None
    ) -> bool:
        """Drive the engine until it is quiescent (within the horizon).

        Unlike :meth:`drive_until` this never advances a virtual clock
        *past* ``until``: timers inside the horizon are reached and fired,
        timers beyond it are left pending.  Returns the final
        :meth:`is_quiescent` value (False only on wall-clock ``timeout``).
        """
        deadline_wall = None if timeout is None else time.monotonic() + timeout
        while True:
            if self.fire_due():
                continue
            if self.is_quiescent(until):
                return True
            if deadline_wall is not None and time.monotonic() >= deadline_wall:
                return self.is_quiescent(until)
            with self._waiting():
                due_deadline = self._next_deadline_locked()
                in_horizon = due_deadline is not None and (
                    until is None or due_deadline <= until
                )
                if in_horizon and self._clock.virtual:
                    if not self._blocked_on_work_locked():
                        self._clock.advance_to(due_deadline)
                        continue
                    # In-flight work holds back virtual time; wait for it.
                    self._condition.wait(_IDLE_WAIT_SECONDS)
                elif in_horizon:
                    # Wall clock: sleep towards the deadline (bounded, so
                    # cancellations and earlier timers wake us), same as
                    # drive_until -- not a fixed-interval poll.
                    self._condition.wait(
                        min(
                            max(due_deadline - self._clock.now(), 0.0),
                            _MAX_WALL_WAIT_SECONDS,
                        )
                    )
                else:
                    # Waiting on executor work draining or another thread's
                    # hold being released.
                    self._condition.wait(_IDLE_WAIT_SECONDS)

    # -- driving ----------------------------------------------------------------

    def _pop_due_locked(self) -> List[TimerHandle]:
        """Claim every timer whose deadline has been reached."""
        now = self._clock.now()
        due: List[TimerHandle] = []
        while self._heap and self._heap[0][0] <= now:
            _, _, handle = heapq.heappop(self._heap)
            if handle._state != _PENDING:
                continue  # cancelled; lazily discarded here
            handle._state = _FIRED
            self._pending -= 1
            self.timers_fired += 1
            due.append(handle)
        return due

    def _next_deadline_locked(self) -> Optional[float]:
        while self._heap and self._heap[0][2]._state != _PENDING:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def _fire(self, due: List[TimerHandle]) -> None:
        """Run claimed timers outside the lock.

        Virtual clock: inline and in deadline order, for determinism.  Wall
        clock: the earliest callback runs inline on the driving thread --
        claimed timers can only run here, so inline execution guarantees
        progress even when the shared executor is saturated by workers that
        are themselves blocked waiting on these timers -- and the rest fan
        out through the executor so concurrent resends overlap their link
        latency.  Completion is signalled through the futures the callbacks
        complete, so the driver need not join the submitted ones.
        """
        if self._clock.virtual or len(due) == 1:
            for handle in due:
                handle._run_callback()
            self._wake()
            return
        for handle in due[1:]:
            parallel.submit(handle._run_callback)
        due[0]._run_callback()
        self._wake()

    def fire_due(self) -> int:
        """Fire everything currently due; returns how many timers fired.

        The whole firing pass runs under an advance hold (owned by this
        thread), so a concurrent driver cannot advance a virtual clock while
        callbacks are mid-flight -- the callbacks may complete futures whose
        continuations take over the hold before it is dropped here.
        """
        with self._condition:
            due = self._pop_due_locked()
            if due:
                self._holds += 1
        if not due:
            return 0
        with AdvanceHold(self):
            self._fire(due)
        return len(due)

    def drive_until(
        self, predicate: Callable[[], bool], timeout: Optional[float] = None
    ) -> bool:
        """Fire timers / advance time until ``predicate()`` holds.

        Returns the final predicate value (False only on wall-clock
        ``timeout``, which is a safety net -- the protocol layers above have
        bounded retry budgets, so a well-formed wait always terminates).
        """
        deadline_wall = None if timeout is None else time.monotonic() + timeout
        while True:
            if deadline_wall is not None and time.monotonic() >= deadline_wall:
                return predicate()
            if self.fire_due():
                if predicate():
                    return True
                continue
            if predicate():
                return True
            with self._waiting():
                # Re-check under the lock: a timer may have become due (or
                # the predicate may have flipped) between fire_due and here.
                due_deadline = self._next_deadline_locked()
                now = self._clock.now()
                if due_deadline is not None and due_deadline <= now:
                    continue
                if predicate():
                    return True
                if due_deadline is None:
                    # Nothing scheduled: some other thread owns the work that
                    # completes the predicate.  Wait for it to notify.
                    self._condition.wait(_IDLE_WAIT_SECONDS)
                elif self._clock.virtual:
                    if self._blocked_on_work_locked():
                        # In-flight work may schedule something earlier than
                        # the heap's next deadline; wait for it to settle
                        # rather than jumping virtual time over it.
                        self._condition.wait(_IDLE_WAIT_SECONDS)
                    else:
                        self._clock.advance_to(due_deadline)
                else:
                    self._condition.wait(
                        min(due_deadline - now, _MAX_WALL_WAIT_SECONDS)
                    )

    # -- shutdown ---------------------------------------------------------------

    def cancel_all(self) -> int:
        """Cancel every pending timer (used by tests and channel teardown)."""
        with self._condition:
            handles = [entry[2] for entry in self._heap]
        cancelled = sum(1 for handle in handles if handle.cancel())
        return cancelled
