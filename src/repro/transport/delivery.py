"""Reliable delivery on top of a lossy network.

The trusted-interceptor assumptions only require *eventual* delivery under a
bounded number of temporary failures.  :class:`ReliableChannel` provides that
guarantee by retrying sends according to a :class:`RetryPolicy`; the retry
count and backoff are accounted against the network's clock so liveness
benchmarks can report time-to-completion under injected faults.

Every send is one state machine on the network's
:class:`repro.transport.scheduler.RetryScheduler`: attempt -> outcome ->
either resolve the :class:`~repro.transport.scheduler.DeliveryFuture`
(success, permanent failure, exhausted budget) or schedule the next attempt
at ``now + backoff`` and return.  The first attempt runs on the calling
thread, so a healthy link resolves the future before ``send_scheduled`` /
``send_batch_scheduled`` return and never touches the timer heap.  The
blocking entry points (``send`` / ``send_batch``) are a wait on that future;
waiting drives the scheduler, so concurrent runs interleave their retry
backoffs instead of summing them.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import DeliveryError
from repro.transport.network import BatchResult, SimulatedNetwork
from repro.transport.scheduler import DeliveryFuture, RetryScheduler, TimerHandle

#: ``RetryPolicy.jitter`` values.
JITTER_NONE = "none"
JITTER_FULL = "full"


@dataclass(frozen=True)
class RetryPolicy:
    """Retry behaviour for a reliable channel.

    ``jitter="full"`` opts into full-jitter backoff: each retry sleeps a
    deterministic pseudo-random fraction of the exponential delay, spreading
    the retry storms of many channels that tripped at the same instant.  The
    fraction is a pure function of ``(jitter_seed, attempt)`` -- no mutable
    RNG state -- so a seeded test reproduces its exact timings.  The
    default (``jitter="none"``) preserves the historical fixed schedule.
    """

    max_attempts: int = 10
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 2.0
    jitter: str = JITTER_NONE
    jitter_seed: bytes = b""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff values must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1.0")
        if self.jitter not in (JITTER_NONE, JITTER_FULL):
            raise ValueError(
                f"jitter must be {JITTER_NONE!r} or {JITTER_FULL!r}, "
                f"got {self.jitter!r}"
            )

    def backoff_for_attempt(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        delay = self.backoff_seconds * (self.backoff_multiplier ** attempt)
        delay = min(delay, self.max_backoff_seconds)
        if self.jitter == JITTER_FULL and delay > 0:
            digest = hmac_module.new(
                self.jitter_seed or b"repro-retry-jitter",
                attempt.to_bytes(8, "big"),
                hashlib.sha256,
            ).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            delay *= fraction
        return delay


class ReliableChannel:
    """Retrying sender bound to one source address on a network."""

    def __init__(
        self,
        network: SimulatedNetwork,
        source: str,
        policy: Optional[RetryPolicy] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self._network = network
        self._source = source
        self._policy = policy or RetryPolicy()
        self._scheduler: RetryScheduler = network.retry_scheduler
        #: Protocol run this channel's deliveries belong to; scheduled retry
        #: timers carry the tag so ``RetryScheduler.cancel_run`` can withdraw
        #: them when the run is aborted (their futures then resolve through
        #: the same cancellation path ``close`` uses).
        self._run_id = run_id
        self._counter_lock = threading.Lock()
        self._pending: Dict[TimerHandle, Callable[[], None]] = {}
        self._closed = False
        self.attempts_made = 0
        self.retries_made = 0

    @property
    def source(self) -> str:
        return self._source

    @property
    def policy(self) -> RetryPolicy:
        return self._policy

    def _count(self, attempts: int, retries: int) -> None:
        """Update the retry accounting; scheduled reattempts fire on any thread."""
        with self._counter_lock:
            self.attempts_made += attempts
            self.retries_made += retries

    # -- circuit breaker ---------------------------------------------------------
    #
    # When the network carries a per-peer CircuitBreaker (see
    # ``SimulatedNetwork.attach_circuit_breaker`` /
    # ``WireNetwork.attach_circuit_breaker``), every attempt consults it
    # first: an open circuit turns the attempt into a local, retryable
    # refusal -- the retry budget still burns (so exhaustion semantics are
    # unchanged) but no socket is touched and no network attempt counter
    # moves.  The breaker is read at attempt time, so attaching one to a
    # network immediately covers its live channels.  Without a breaker the
    # behaviour is byte-identical to earlier releases.

    def _refused_by_breaker(self, destination: str) -> Optional[DeliveryError]:
        breaker = getattr(self._network, "circuit_breaker", None)
        if breaker is None or breaker.allow(destination):
            return None
        record = getattr(self._network, "record_circuit_refusal", None)
        if record is not None:
            record(destination)
        return DeliveryError(
            f"circuit for {destination!r} is open; attempt refused locally"
        )

    def _record_outcome(self, destination: str, error: Optional[Exception]) -> None:
        """Feed a network attempt's outcome to the breaker (if any).

        Only :class:`DeliveryError` counts as a failure -- permanent
        :class:`UnknownEndpointError` and handler-raised exceptions say
        nothing about link health.
        """
        breaker = getattr(self._network, "circuit_breaker", None)
        if breaker is None:
            return
        if error is None:
            breaker.record_success(destination)
        elif isinstance(error, DeliveryError):
            breaker.record_failure(destination)

    # -- blocking entry points --------------------------------------------------

    def send(self, destination: str, operation: str, payload: Any) -> Any:
        """Send with retries; raise :class:`DeliveryError` when the budget is spent.

        Unknown endpoints fail immediately (retrying cannot help), matching
        the distinction between temporary and permanent failures.  The wait
        is event-driven: this thread drives other runs' pending retries
        while its own backoffs elapse.
        """
        return self.send_scheduled(destination, operation, payload).result()

    def send_batch(
        self, entries: List[Tuple[str, str, Any]]
    ) -> List[BatchResult]:
        """Send a fan-out of ``(destination, operation, payload)`` entries.

        Each entry gets the same retry guarantee as :meth:`send`, but all
        still-pending entries of one attempt go through a single
        :meth:`SimulatedNetwork.send_batch` call, and the backoff between
        attempts is paid once for the whole batch rather than once per
        destination.  Per-entry failures are reported in the returned
        :class:`BatchResult` list instead of being raised, so one unreachable
        peer never masks the other deliveries.

        Under a parallel network dispatch strategy the entries of one
        attempt are delivered concurrently; the backoff between attempts is
        a timer rather than a sleep, so the calling thread's wait overlaps
        with every other run's retries.
        """
        return self.send_batch_scheduled(entries).result()

    def _exhausted(self, destination: str, last_error: Optional[Exception]) -> DeliveryError:
        return DeliveryError(
            f"delivery from {self._source!r} to {destination!r} failed after "
            f"{self._policy.max_attempts} attempts: {last_error}"
        )

    def _closed_in_flight(
        self, destination: str, last_error: Optional[Exception]
    ) -> DeliveryError:
        return DeliveryError(
            f"channel at {self._source!r} closed with delivery "
            f"to {destination!r} in flight: {last_error}"
        )

    # -- the delivery state machines ----------------------------------------------

    def _schedule_retry(
        self, delay: float, reattempt: Callable[[], None], on_cancel: Callable[[], None]
    ) -> None:
        """Register a deferred reattempt, tracked for cancellation.

        The timer carries the channel's run tag and its cancellation hook, so
        both :meth:`close` and a run-level ``RetryScheduler.cancel_run`` tear
        the reattempt down the same way: the timer leaves the heap and the
        affected futures resolve through ``on_cancel``.
        """
        cell: Dict[str, TimerHandle] = {}

        def fire() -> None:
            with self._counter_lock:
                self._pending.pop(cell.get("handle"), None)
                closed = self._closed
            if closed:
                on_cancel()
                return
            reattempt()

        def cancelled() -> None:
            with self._counter_lock:
                self._pending.pop(cell.get("handle"), None)
            on_cancel()

        with self._counter_lock:
            if self._closed:
                on_cancel()
                return
            handle = self._scheduler.schedule(
                delay, fire, run_id=self._run_id, on_cancel=cancelled
            )
            cell["handle"] = handle
            self._pending[handle] = on_cancel

    def send_scheduled(
        self, destination: str, operation: str, payload: Any
    ) -> DeliveryFuture:
        """Start the retrying send as a state machine; returns its future.

        The first attempt runs on the calling thread (a healthy link
        resolves the future before this returns); failed attempts schedule
        their reattempt and return, leaving the thread free.  The future
        resolves to the destination handler's reply or fails with the errors
        :meth:`send` raises.
        """
        future = DeliveryFuture(self._scheduler)
        self._attempt_send(future, (destination, operation, payload), 0)
        return future

    def _attempt_send(
        self, future: DeliveryFuture, entry: Tuple[str, str, Any], attempt_no: int
    ) -> None:
        destination = entry[0]
        self._count(attempts=1, retries=1 if attempt_no > 0 else 0)
        error: Optional[Exception] = self._refused_by_breaker(destination)
        if error is None:
            try:
                reply = self._network.send(self._source, *entry)
            except DeliveryError as delivery_error:
                self._record_outcome(destination, delivery_error)
                error = delivery_error
            except Exception as final:  # noqa: BLE001
                # An unknown endpoint is permanent and a handler-raised
                # failure is the peer's answer: resolve, never reattempt.
                future.fail(final)
                return
            else:
                self._record_outcome(destination, None)
                future.complete(reply)
                return
        next_attempt = attempt_no + 1
        if next_attempt >= self._policy.max_attempts:
            future.fail(self._exhausted(destination, error))
            return
        self._schedule_retry(
            self._policy.backoff_for_attempt(attempt_no),
            lambda: self._attempt_send(future, entry, next_attempt),
            on_cancel=lambda: future.fail(self._closed_in_flight(destination, error)),
        )

    def send_batch_scheduled(
        self, entries: List[Tuple[str, str, Any]]
    ) -> DeliveryFuture:
        """Start a retrying fan-out; returns the wave's completion future.

        The future resolves to one :class:`BatchResult` per entry, in entry
        order, once every entry is decided (delivered, failed permanently,
        or out of budget).  All still-pending entries of one attempt go
        through a single network batch and share one backoff timer, so
        attempt accounting, network statistics and fault draws do not depend
        on how many entries fail.
        """
        future = DeliveryFuture(self._scheduler)
        results: List[BatchResult] = [BatchResult() for _ in entries]
        self._attempt_batch(future, entries, results, 0, list(range(len(entries))))
        return future

    def _attempt_batch(
        self,
        future: DeliveryFuture,
        entries: List[Tuple[str, str, Any]],
        results: List[BatchResult],
        attempt_no: int,
        pending: List[int],
    ) -> None:
        self._count(
            attempts=len(pending),
            retries=len(pending) if attempt_no > 0 else 0,
        )
        to_send: List[int] = []
        still_pending: List[int] = []
        for index in pending:
            refused = self._refused_by_breaker(entries[index][0])
            if refused is None:
                to_send.append(index)
            else:
                results[index] = BatchResult(error=refused)
                still_pending.append(index)
        try:
            batch = (
                self._network.send_batch(
                    self._source, [entries[index] for index in to_send]
                )
                if to_send
                else []
            )
        except Exception as error:  # noqa: BLE001 - must resolve the wave
            # The first attempt runs on the calling thread: propagate
            # (programming errors stay loud).  Deferred reattempts fire on
            # arbitrary driving threads, where an escaping exception would
            # leave the future unresolved (and its waiters spinning) -- so
            # there infrastructure failures resolve the wave instead.
            if attempt_no == 0:
                raise
            for index in pending:
                results[index] = BatchResult(error=error)
            future.complete(results)
            return
        for index, outcome in zip(to_send, batch):
            results[index] = outcome
            error = outcome.error
            if error is None:
                self._record_outcome(entries[index][0], None)
            elif isinstance(error, DeliveryError):
                self._record_outcome(entries[index][0], error)
                still_pending.append(index)
            # Anything else is decided: an unknown endpoint is permanent
            # and a handler-raised failure is the peer's answer.
        if not still_pending:
            future.complete(results)
            return
        still_pending.sort()

        def give_up(describe: Callable[[str, Optional[Exception]], DeliveryError]) -> None:
            for index in still_pending:
                results[index] = BatchResult(
                    error=describe(entries[index][0], results[index].error)
                )
            future.complete(results)

        next_attempt = attempt_no + 1
        if next_attempt >= self._policy.max_attempts:
            give_up(self._exhausted)
            return
        self._schedule_retry(
            self._policy.backoff_for_attempt(attempt_no),
            lambda: self._attempt_batch(
                future, entries, results, next_attempt, still_pending
            ),
            on_cancel=lambda: give_up(self._closed_in_flight),
        )

    # -- teardown ---------------------------------------------------------------

    def pending_retries(self) -> int:
        """Number of reattempts currently parked on the scheduler."""
        with self._counter_lock:
            return len(self._pending)

    def close(self) -> None:
        """Cancel in-flight retries; their futures fail as 'channel closed'.

        Idempotent.  Every cancelled timer is removed from the scheduler (no
        leaked timers) and every affected future completes, so no waiter is
        left hanging.  Attempts already executing on another thread complete
        their current network call but schedule no further reattempt.
        """
        with self._counter_lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending)
            self._pending.clear()
        for handle in pending:
            # The timer's on_cancel hook (registered at schedule time) fails
            # the affected futures; a handle that already fired resolved (or
            # will resolve) its future through the fire path instead.
            handle.cancel()
