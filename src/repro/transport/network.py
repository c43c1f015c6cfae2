"""In-process simulated network.

Organisations register :class:`Endpoint` handlers under their address
(a URI).  Senders deliver :class:`Message` objects through
:meth:`SimulatedNetwork.send`; the network applies the configured faults
(message loss, duplication, latency, reordering, partitions) before
dispatching to the destination handler and accounting the traffic in
:class:`NetworkStatistics`.

Faults come from either the legacy :class:`FaultModel` (probabilistic
drop/latency/duplicate, preserved draw-for-draw for seeded tests) or a
declarative :class:`repro.faults.FaultPlan` -- both are evaluated by one
:class:`repro.faults.FaultInjector`, the same engine the wire transport
consults, so a seeded plan produces the identical fault sequence on either
transport.

The simulation is synchronous: ``send`` returns the handler's reply, which
keeps protocol code easy to follow while still exercising loss/duplication/
partition behaviour through explicit retry layers
(:mod:`repro.transport.delivery`).

Concurrency model: admission (fault decisions, statistics, trace) always
happens under one lock, in entry order, so traffic accounting is
deterministic and bit-identical regardless of how handlers are then
dispatched.  The dispatch phase is pluggable through a
:class:`DispatchStrategy`: :class:`SequentialDispatch` (the default) invokes
handlers one at a time in entry order, while :class:`ParallelDispatch` runs
the admitted handlers of one ``send_batch`` concurrently on a thread pool --
link-latency sleeps and GIL-releasing signature work then overlap across
destinations.  Handlers reached through a parallel network must be
thread-safe (every store and coordinator in this package is lock-protected).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import codec, parallel
from repro.clock import Clock, MonotonicCounter, SimulatedClock
from repro.errors import DeliveryError, UnknownEndpointError
from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import CLEAN_DECISION, FaultDecision, FaultInjector, FaultPlan
from repro.observability import tracing as _tracing
from repro.observability.runtime import STATE as _OBS
from repro.transport.recorder import MessageTraceRecorder
from repro.transport.scheduler import RetryScheduler


#: ``Message.sizing`` values: how the byte size of a message was obtained.
SIZING_CANONICAL = "canonical"
SIZING_REPR = "repr"

#: Audit-log category used for transport-level events (circuit-breaker
#: transitions, load shedding, frame-decode failures) on both transports.
AUDIT_CATEGORY_TRANSPORT = "transport"


@dataclass
class Message:
    """A unit of network traffic.

    Attributes:
        sender / destination: endpoint addresses (URIs).
        operation: logical operation name at the destination (e.g.
            ``"deliver"`` on a coordinator).
        payload: arbitrary, canonically encodable content.
        message_id: unique id assigned by the network, used for duplicate
            suppression by receivers that need at-most-once behaviour.
    """

    sender: str
    destination: str
    operation: str
    payload: Any
    message_id: int = -1

    #: How this message was sized: ``"canonical"`` for the canonical codec
    #: encoding, ``"repr"`` for the lossy fallback (set by ``encoded_size``).
    sizing: str = SIZING_CANONICAL

    #: Ambient ``(trace_id, span_id)`` at construction time, when tracing is
    #: enabled.  Carried out-of-band: never part of the canonical envelope,
    #: so byte accounting is identical with tracing on or off.
    trace: Optional[Tuple[str, str]] = None

    def encoded_size(self) -> int:
        """Size of the message payload in canonical bytes, computed once.

        Payloads that cannot be canonically encoded (e.g. application objects
        passed through plain, non-NR invocations) are sized by their ``repr``
        so traffic accounting still works; such messages are marked with
        ``sizing == "repr"`` and surfaced in
        :attr:`NetworkStatistics.messages_sized_by_repr` so benchmark byte
        counts are honest about the fallback.  The computed size is cached on
        the message (messages are immutable once handed to the network).
        """
        cached = self.__dict__.get("_size")
        if cached is not None:
            return cached
        envelope = {
            "sender": self.sender,
            "destination": self.destination,
            "operation": self.operation,
            "payload": self.payload,
        }
        try:
            size = codec.encoded_size(envelope)
        except codec.CodecError:
            size = len(repr(envelope).encode("utf-8"))
            self.sizing = SIZING_REPR
        self.__dict__["_size"] = size
        return size


@dataclass
class BatchResult:
    """Outcome of one entry of a batched send: a reply or an error."""

    result: Any = None
    error: Optional[Exception] = None

    @property
    def delivered(self) -> bool:
        return self.error is None


#: An endpoint handler maps (operation, payload, message) to a reply payload.
EndpointHandler = Callable[[Message], Any]


@dataclass
class Endpoint:
    """A registered network endpoint."""

    address: str
    handler: EndpointHandler
    online: bool = True


@dataclass
class FaultModel:
    """Configurable failure injection.

    ``drop_probability`` and ``duplicate_probability`` apply per send attempt.
    ``max_consecutive_drops`` enforces the paper's *bounded* failure
    assumption: after that many consecutive injected drops on a link the next
    attempt is allowed through, guaranteeing eventual delivery for retrying
    senders.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    latency_seconds: float = 0.0
    jitter_seconds: float = 0.0
    max_consecutive_drops: int = 5
    seed: Optional[bytes] = None

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.latency_seconds < 0 or self.jitter_seconds < 0:
            raise ValueError("latency and jitter must be non-negative")
        if self.max_consecutive_drops < 0:
            raise ValueError("max_consecutive_drops must be non-negative")


@dataclass
class NetworkPartition:
    """A set of links that are currently severed."""

    severed_links: Set[Tuple[str, str]] = field(default_factory=set)

    def sever(self, a: str, b: str) -> None:
        """Cut connectivity between ``a`` and ``b`` (both directions)."""
        self.severed_links.add((a, b))
        self.severed_links.add((b, a))

    def heal(self, a: str, b: str) -> None:
        """Restore connectivity between ``a`` and ``b``."""
        self.severed_links.discard((a, b))
        self.severed_links.discard((b, a))

    def heal_all(self) -> None:
        self.severed_links.clear()

    def is_severed(self, a: str, b: str) -> bool:
        return (a, b) in self.severed_links


@dataclass
class NetworkStatistics:
    """Aggregate traffic counters used by the benchmarks."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    #: Messages an injected fault deferred to the end of their batch wave.
    messages_reordered: int = 0
    #: Inbound frames refused by wire-server backpressure (load shedding).
    messages_shed: int = 0
    #: Inbound frames that failed to decode (corrupt/oversized); each one
    #: cost the peer its connection.
    frame_decode_failures: int = 0
    #: Send attempts refused locally because the destination's circuit
    #: breaker was open (no socket touched, no attempt counter burned).
    circuit_open_refusals: int = 0
    bytes_delivered: int = 0
    #: Messages whose size came from the lossy ``repr`` fallback rather than
    #: the canonical encoding; nonzero means byte counters are approximate.
    messages_sized_by_repr: int = 0
    total_latency: float = 0.0
    per_operation: Dict[str, int] = field(default_factory=dict)
    #: Delivery effort per destination: every send *attempt* (including
    #: retries and attempts that were dropped) versus the attempts that were
    #: actually delivered.  The difference is the retry traffic a flaky link
    #: cost, which benchmarks and dispute reports surface as
    #: ``attempts - deliveries`` without needing access to every channel.
    attempts_per_destination: Dict[str, int] = field(default_factory=dict)
    deliveries_per_destination: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def _dict_delta(current: Dict[str, int], earlier: Dict[str, int]) -> Dict[str, int]:
        merged = dict(current)
        for key, count in earlier.items():
            merged[key] = merged.get(key, 0) - count
        return {key: value for key, value in merged.items() if value}

    def failed_attempts_per_destination(self) -> Dict[str, int]:
        """Attempts that did not result in delivery, per destination.

        Note this counts every undelivered attempt -- including a
        destination's *first* attempt when it too failed -- so for a
        never-delivered destination it reads ``max_attempts``, one more than
        the channel-level ``retries_made`` (which counts reattempts only).
        """
        return {
            destination: attempts
            - self.deliveries_per_destination.get(destination, 0)
            for destination, attempts in self.attempts_per_destination.items()
            if attempts != self.deliveries_per_destination.get(destination, 0)
        }

    def snapshot(self) -> "NetworkStatistics":
        """Return a copy of the current counters."""
        return NetworkStatistics(
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            messages_dropped=self.messages_dropped,
            messages_duplicated=self.messages_duplicated,
            messages_reordered=self.messages_reordered,
            messages_shed=self.messages_shed,
            frame_decode_failures=self.frame_decode_failures,
            circuit_open_refusals=self.circuit_open_refusals,
            bytes_delivered=self.bytes_delivered,
            messages_sized_by_repr=self.messages_sized_by_repr,
            total_latency=self.total_latency,
            per_operation=dict(self.per_operation),
            attempts_per_destination=dict(self.attempts_per_destination),
            deliveries_per_destination=dict(self.deliveries_per_destination),
        )

    def delta(self, earlier: "NetworkStatistics") -> "NetworkStatistics":
        """Return the difference between this snapshot and ``earlier``."""
        return NetworkStatistics(
            messages_sent=self.messages_sent - earlier.messages_sent,
            messages_delivered=self.messages_delivered - earlier.messages_delivered,
            messages_dropped=self.messages_dropped - earlier.messages_dropped,
            messages_duplicated=self.messages_duplicated - earlier.messages_duplicated,
            messages_reordered=self.messages_reordered - earlier.messages_reordered,
            messages_shed=self.messages_shed - earlier.messages_shed,
            frame_decode_failures=(
                self.frame_decode_failures - earlier.frame_decode_failures
            ),
            circuit_open_refusals=(
                self.circuit_open_refusals - earlier.circuit_open_refusals
            ),
            bytes_delivered=self.bytes_delivered - earlier.bytes_delivered,
            messages_sized_by_repr=(
                self.messages_sized_by_repr - earlier.messages_sized_by_repr
            ),
            total_latency=self.total_latency - earlier.total_latency,
            per_operation=self._dict_delta(self.per_operation, earlier.per_operation),
            attempts_per_destination=self._dict_delta(
                self.attempts_per_destination, earlier.attempts_per_destination
            ),
            deliveries_per_destination=self._dict_delta(
                self.deliveries_per_destination, earlier.deliveries_per_destination
            ),
        )


class DispatchStrategy:
    """How the admitted handlers of one ``send_batch`` are executed.

    Admission and accounting always run first, under the network lock, in
    entry order -- a strategy only chooses how the already-admitted handler
    invocations (each packaged as a self-contained thunk that records its own
    result or error) are scheduled.  Strategies must run every thunk exactly
    once and return only when all have finished.
    """

    name: str = ""

    def run(self, units: List[Callable[[], None]]) -> None:
        raise NotImplementedError


class SequentialDispatch(DispatchStrategy):
    """Default strategy: invoke handlers one at a time, in entry order.

    The reference semantics the parallel mode is property-tested against:
    traffic accounting is bit-identical to pre-strategy releases.  (When
    link latency is modelled, handler-observed virtual-clock times differ
    slightly from older releases, because latency is now paid per entry at
    dispatch instead of being summed during admission; statistics are
    unaffected.)
    """

    name = "sequential"

    def run(self, units: List[Callable[[], None]]) -> None:
        for unit in units:
            unit()


class ParallelDispatch(DispatchStrategy):
    """Dispatch admitted handlers concurrently on a thread pool.

    Per-destination link-latency sleeps and GIL-releasing crypto (OpenSSL
    exponentiation via ctypes) overlap across the fan-out, so an 8-party
    proposal round pays one round-trip latency instead of eight.  Nested
    fan-outs issued from a worker thread run inline sequentially (see
    :mod:`repro.parallel`), which keeps pool-exhaustion deadlocks impossible.

    ``max_workers=None`` (the default) draws threads from the process-wide
    shared executor; passing an explicit ``max_workers`` gives this strategy
    a private pool of that size (release it with :meth:`close` when the
    strategy is no longer needed).  Private-pool workers are marked exactly
    like shared-pool workers, so the nested-runs-inline rule holds for both.
    """

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._own_executor = None
        if max_workers is not None:
            from concurrent.futures import ThreadPoolExecutor

            self._own_executor = ThreadPoolExecutor(
                max_workers=max_workers,
                thread_name_prefix="repro-dispatch",
                initializer=parallel.mark_worker_thread,
            )

    def run(self, units: List[Callable[[], None]]) -> None:
        if len(units) <= 1 or parallel.in_worker_thread():
            for unit in units:
                unit()
            return
        if self._own_executor is not None:
            futures = [self._own_executor.submit(unit) for unit in units]
            for future in futures:
                future.result()
            return
        # Units trap their own exceptions into the batch results, so run_all
        # outcomes only surface unexpected infrastructure failures.
        for _, error in parallel.run_all(units):
            if error is not None:
                raise error

    def close(self) -> None:
        """Shut down the private pool, if any (the shared executor is untouched)."""
        if self._own_executor is not None:
            self._own_executor.shutdown(wait=True)
            self._own_executor = None


class SimulatedNetwork:
    """The message fabric connecting organisations, TTPs and services."""

    def __init__(
        self,
        fault_model: Optional[FaultModel] = None,
        clock: Optional[Clock] = None,
        dispatch: Optional[DispatchStrategy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if fault_model is not None and fault_plan is not None:
            raise ValueError("pass either fault_model= or fault_plan=, not both")
        self.fault_model = fault_model or FaultModel()
        self.fault_plan = fault_plan
        self.clock = clock or SimulatedClock()
        self.dispatch = dispatch or SequentialDispatch()
        #: The timer heap of this network, on this clock: every reliable
        #: channel retries on it and it carries the deadlines of the
        #: protocol runs above.
        self.retry_scheduler = RetryScheduler(self.clock)
        self.partition = NetworkPartition()
        self.statistics = NetworkStatistics()
        #: Optional per-peer breaker consulted by channels over this network
        #: (see :meth:`attach_circuit_breaker`).
        self.circuit_breaker: Optional[CircuitBreaker] = None
        self.audit_log = None
        self._endpoints: Dict[str, Endpoint] = {}
        model = self.fault_model
        # An all-zero model draws nothing and always decides clean: admission
        # then skips the injector (and its lock) altogether.
        self._injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            self._injector = FaultInjector(plan=fault_plan)
        elif any((model.drop_probability, model.duplicate_probability,
                  model.latency_seconds, model.jitter_seconds)):
            self._injector = FaultInjector(model=model)
        self._message_counter = MonotonicCounter(1)
        self._lock = threading.RLock()
        self._recorder = MessageTraceRecorder()
        self.trace_enabled = False

    def set_dispatch(self, dispatch: DispatchStrategy) -> None:
        """Switch the handler-dispatch strategy for subsequent batches."""
        self.dispatch = dispatch

    def set_retry_scheduler(self, scheduler: RetryScheduler) -> None:
        """Replace the retry scheduler (it must run on this network's clock).

        Only channels created after the switch pick the scheduler up; live
        channels keep the one they were created with.
        """
        self.retry_scheduler = scheduler

    # -- endpoint management ---------------------------------------------------

    def register(self, address: str, handler: EndpointHandler) -> Endpoint:
        """Register (or replace) the handler for ``address``."""
        with self._lock:
            endpoint = Endpoint(address=address, handler=handler)
            self._endpoints[address] = endpoint
            return endpoint

    def unregister(self, address: str) -> None:
        with self._lock:
            self._endpoints.pop(address, None)

    def endpoint(self, address: str) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError:
            raise UnknownEndpointError(f"no endpoint registered at {address!r}") from None

    def addresses(self) -> List[str]:
        return sorted(self._endpoints)

    def set_online(self, address: str, online: bool) -> None:
        """Simulate a node crash (``online=False``) or recovery."""
        self.endpoint(address).online = online

    # -- fault plane / observability --------------------------------------------

    def attach_audit_log(self, audit_log) -> None:
        """Route transport-level events (breaker transitions, shedding) to
        ``audit_log`` under the ``"transport"`` category."""
        self.audit_log = audit_log

    def attach_circuit_breaker(self, breaker: CircuitBreaker) -> None:
        """Install a per-peer breaker; channels over this network consult it.

        The breaker is bound to this network's clock and its transitions are
        appended to the attached audit log (attach the log first if both are
        wanted).
        """
        breaker.bind(clock=self.clock, on_event=self._on_breaker_event)
        self.circuit_breaker = breaker

    def record_circuit_refusal(self, destination: str) -> None:
        """Count one locally-refused attempt (open circuit) for statistics."""
        with self._lock:
            self.statistics.circuit_open_refusals += 1

    def _on_breaker_event(
        self, destination: str, old_state: str, new_state: str, reason: str
    ) -> None:
        self._audit(
            destination,
            {
                "event": "circuit-breaker-transition",
                "from": old_state,
                "to": new_state,
                "reason": reason,
            },
        )

    def _audit(self, subject: str, details: Dict[str, Any]) -> None:
        log = self.audit_log
        if log is None:
            return
        try:
            log.append(
                category=AUDIT_CATEGORY_TRANSPORT, subject=subject, details=details
            )
        except Exception:  # noqa: BLE001 - observability must not break delivery
            pass

    # -- sending ----------------------------------------------------------------

    def _admit_locked(self, message: Message) -> Tuple[Endpoint, FaultDecision]:
        """Account and fault-check one message; caller must hold the lock.

        Returns ``(endpoint, decision)`` on admission; raises
        :class:`DeliveryError` / :class:`UnknownEndpointError` on loss.  All
        statistics -- including the duplicate counter -- are taken here, under
        the lock and before any handler runs, so accounting is identical for
        ``send`` and ``send_batch`` and independent of the dispatch strategy.
        The decision's latency is *paid* by the caller during dispatch,
        outside the lock, so concurrent deliveries of a parallel batch
        overlap their link latency instead of serialising it through
        admission.
        """
        sender, destination = message.sender, message.destination
        self.statistics.messages_sent += 1
        self.statistics.per_operation[message.operation] = (
            self.statistics.per_operation.get(message.operation, 0) + 1
        )
        self.statistics.attempts_per_destination[destination] = (
            self.statistics.attempts_per_destination.get(destination, 0) + 1
        )
        if self.trace_enabled:
            self._recorder.record(message)

        if self.partition.is_severed(sender, destination):
            self.statistics.messages_dropped += 1
            raise DeliveryError(f"link {sender!r} -> {destination!r} is partitioned")
        endpoint = self._endpoints.get(destination)
        if endpoint is None:
            self.statistics.messages_dropped += 1
            raise UnknownEndpointError(f"no endpoint registered at {destination!r}")
        if not endpoint.online:
            self.statistics.messages_dropped += 1
            raise DeliveryError(f"endpoint {destination!r} is offline")

        injector = self._injector
        if injector is None:
            decision = CLEAN_DECISION
        else:
            decision = injector.decide(sender, destination, message.operation)
        if decision.partitioned:
            self.statistics.messages_dropped += 1
            raise DeliveryError(
                f"link {sender!r} -> {destination!r} severed by fault plan: "
                f"{decision.reason}"
            )
        if decision.drop:
            self.statistics.messages_dropped += 1
            raise DeliveryError(
                f"message {message.message_id} from {sender!r} to "
                f"{destination!r} was lost"
            )
        if decision.corrupt:
            self.statistics.messages_dropped += 1
            raise DeliveryError(
                f"message {message.message_id} from {sender!r} to "
                f"{destination!r} was corrupted in transit"
            )
        if decision.reset:
            self.statistics.messages_dropped += 1
            raise DeliveryError(
                f"connection {sender!r} -> {destination!r} was reset by "
                "fault injection"
            )

        self.statistics.total_latency += decision.latency
        self.statistics.messages_delivered += 1
        self.statistics.deliveries_per_destination[destination] = (
            self.statistics.deliveries_per_destination.get(destination, 0) + 1
        )
        self.statistics.bytes_delivered += message.encoded_size()
        if message.sizing == SIZING_REPR:
            self.statistics.messages_sized_by_repr += 1

        if decision.duplicate:
            self.statistics.messages_duplicated += 1
        if decision.reorder:
            self.statistics.messages_reordered += 1
        return endpoint, decision

    def send(self, sender: str, destination: str, operation: str, payload: Any) -> Any:
        """Deliver a message and return the destination handler's reply.

        Raises :class:`DeliveryError` when the message is lost (injected drop,
        partitioned link or offline destination).  Callers needing guaranteed
        delivery wrap sends in a :class:`repro.transport.delivery.ReliableChannel`.
        """
        with self._lock:
            message = Message(
                sender=sender,
                destination=destination,
                operation=operation,
                payload=payload,
                message_id=self._message_counter.next(),
            )
            if _OBS.tracing is not None:
                message.trace = _tracing.current_ctx()
            endpoint, decision = self._admit_locked(message)

        # Dispatch outside the lock so handlers can themselves send messages.
        # The handler runs on the calling thread, where the message's span
        # context (if any) is already ambient -- no activation needed here.
        self.clock.sleep(decision.latency)
        if decision.duplicate:
            endpoint.handler(message)
        return endpoint.handler(message)

    def send_batch(
        self, sender: str, entries: List[Tuple[str, str, Any]]
    ) -> List[BatchResult]:
        """Deliver a fan-out of messages, accounting each exactly like ``send``.

        ``entries`` is a list of ``(destination, operation, payload)``
        triples.  Payloads that share pre-canonicalised content (tokens,
        proposal bodies) are sized from their cached encodings, so the shared
        body is never re-encoded per recipient; per-message statistics
        (``messages_sent``, ``bytes_delivered``, ``per_operation``) are
        identical to an equivalent sequence of individual sends.  Admission
        and accounting happen under one lock acquisition, in entry order;
        the admitted handlers are then executed outside the lock by the
        configured :class:`DispatchStrategy` (in entry order under
        :class:`SequentialDispatch`, concurrently under
        :class:`ParallelDispatch`).  Failures are returned per entry
        (:class:`BatchResult`) rather than raised, so one lost link never
        masks the remaining deliveries.
        """
        admitted: List[Tuple[int, Message, Endpoint, FaultDecision]] = []
        results: List[BatchResult] = [BatchResult() for _ in entries]
        trace_ctx = _tracing.current_ctx() if _OBS.tracing is not None else None
        with self._lock:
            for index, (destination, operation, payload) in enumerate(entries):
                message = Message(
                    sender=sender,
                    destination=destination,
                    operation=operation,
                    payload=payload,
                    message_id=self._message_counter.next(),
                    trace=trace_ctx,
                )
                try:
                    endpoint, decision = self._admit_locked(message)
                except (DeliveryError, UnknownEndpointError) as error:
                    results[index].error = error
                    continue
                admitted.append((index, message, endpoint, decision))

        # Injected reordering: flagged entries are deferred behind the rest
        # of the wave (a stable shuffle, so the fault sequence stays
        # deterministic).  Statistics were taken at admission in entry order
        # and are unaffected.
        if any(entry[3].reorder for entry in admitted):
            admitted = [e for e in admitted if not e[3].reorder] + [
                e for e in admitted if e[3].reorder
            ]

        def make_unit(
            index: int,
            message: Message,
            endpoint: Endpoint,
            decision: FaultDecision,
        ) -> Callable[[], None]:
            def invoke() -> Any:
                if decision.duplicate:
                    endpoint.handler(message)
                return endpoint.handler(message)

            def unit() -> None:
                try:
                    self.clock.sleep(decision.latency)
                    # Parallel dispatch may hop threads: restore the sender's
                    # span context around the handler so responder spans stay
                    # parented to the run.
                    results[index].result = _tracing.call_in_ctx(
                        message.trace, invoke
                    )
                except Exception as error:  # per-entry isolation, mirrors
                    results[index].error = error  # callers' per-peer semantics

            return unit

        self.dispatch.run([make_unit(*entry) for entry in admitted])
        return results

    # -- introspection -----------------------------------------------------------

    @property
    def trace(self) -> List[Message]:
        """Recorded messages (only populated when ``trace_enabled`` is set)."""
        return self._recorder.messages()

    def clear_trace(self) -> None:
        self._recorder.clear()

    def set_trace_capacity(self, cap: int) -> None:
        """Re-bound the message recorder (existing entries are kept FIFO)."""
        self._recorder.set_cap(cap)

    def reset_statistics(self) -> None:
        self.statistics = NetworkStatistics()
