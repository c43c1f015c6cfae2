"""Socket-backed network implementing the simulated network's surface.

A :class:`WireNetwork` is one *node* of a cross-process deployment: it hosts
the local endpoints of this process (registered exactly like on a
:class:`~repro.transport.network.SimulatedNetwork`), serves inbound frames
for them through a :class:`~repro.transport.wire.server.WireServer`, and
sends to endpoints hosted elsewhere through a per-peer
:class:`~repro.transport.wire.connection.ConnectionPool`, resolving the
destination process via a :class:`~repro.transport.wire.peers.
PeerAddressBook`.

The class exposes the same ``register`` / ``send`` / ``send_batch`` surface
(and the same :class:`~repro.transport.network.NetworkStatistics`,
``clock``, ``retry_scheduler`` and dispatch-strategy attachment points) as
the simulator, so every layer above -- :class:`~repro.transport.delivery.
ReliableChannel` state machines, :class:`~repro.transport.scheduler.
RetryScheduler` futures, :class:`~repro.transport.network.ParallelDispatch`,
the run engine -- works unchanged on real sockets.

Invariants preserved relative to the simulator:

* **Accounting is sender-side.**  Every counter of ``statistics`` is taken
  by the node that *originates* a message (attempts and sends at admission,
  delivered/bytes on a successful reply, dropped on loss), so summing the
  statistics of all nodes of a deployment yields exactly the global view
  the simulator keeps, and ``messages_per_update`` / ``bytes_per_update``
  match the simulated transport.  Byte counts use the same canonical
  envelope size the simulator charges, not raw frame bytes.
* **Failure taxonomy.**  Socket-level failures (refused, reset, timeout)
  and offline endpoints surface as retryable
  :class:`~repro.errors.DeliveryError`; unmapped or unregistered endpoints
  as permanent :class:`~repro.errors.UnknownEndpointError`; exceptions
  raised by the remote handler are revived as themselves (see
  :func:`~repro.transport.wire.wirecodec.revive_error`) after the delivery
  was counted -- exactly the simulator's semantics, which is what keeps the
  retry state machines' recovery behaviour identical.
* **Local fast path.**  A destination registered on *this* node is invoked
  in process (no socket), like the simulator would; only genuinely remote
  destinations pay a frame round trip.

Fault injection: a seeded :class:`repro.faults.FaultPlan` attached via
``fault_plan=`` (or :meth:`WireNetwork.set_fault_plan`) is consulted at
admission by the same :class:`repro.faults.FaultInjector` engine the
simulator uses -- but here the decisions are realised as *real* transport
faults: a drop skips the round trip, a corrupt frame or injected reset is
performed on the actual socket (see
:meth:`~repro.transport.wire.connection.ConnectionPool.request`), a
duplicate performs the exchange twice, and crash rules fire the server's
:class:`~repro.faults.FailpointRegistry`.  Every injected failure flows
through the organic :class:`~repro.errors.DeliveryError` taxonomy, so the
recovery machinery exercised under chaos is exactly the machinery
production traffic relies on.  With no plan attached behaviour is
byte-identical to earlier releases; the wire's organic faults (kill a
connection, stop a peer) remain available regardless.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clock import Clock, MonotonicCounter, SystemClock
from repro.errors import DeliveryError, UnknownEndpointError
from repro.faults.breaker import CircuitBreaker
from repro.faults.failpoints import VERB_CLOSE, FailpointRegistry
from repro.faults.plan import FaultDecision, FaultPlan
from repro.observability import tracing as _tracing
from repro.observability.runtime import STATE as _OBS
from repro.transport.network import (
    AUDIT_CATEGORY_TRANSPORT,
    BatchResult,
    DispatchStrategy,
    Endpoint,
    EndpointHandler,
    Message,
    NetworkStatistics,
    SequentialDispatch,
)
from repro.transport.recorder import MessageTraceRecorder
from repro.transport.scheduler import RetryScheduler
from repro.transport.wire import wirecodec
from repro.transport.wire.connection import ConnectionPool
from repro.transport.wire.framing import MAX_FRAME_BYTES, FramingError
from repro.transport.wire.peers import HostPort, PeerAddressBook
from repro.transport.wire.server import WireServer

__all__ = [
    "FAILPOINT_CLIENT_AFTER_SEND",
    "FAILPOINT_CLIENT_BEFORE_SEND",
    "SYSTEM_ADDRESS",
    "WireNetwork",
]

#: Reserved destination served by the node itself (credential exchange,
#: peer introduction) rather than by a registered endpoint.  System traffic
#: is infrastructure, not protocol traffic, and is not accounted in
#: ``statistics`` -- mirroring the simulator, where key exchange happens out
#: of band.
SYSTEM_ADDRESS = "@system"

#: Client-side crash failpoints, fired around the primary socket exchange of
#: every remote protocol delivery (system traffic is infrastructure and draws
#: none).  ``before-send`` models a sender dying with the message unsent --
#: no peer ever sees it; ``after-send`` models the classic reply-lost window
#: -- the peer processed the message but the sender never learns it, so a
#: retry exercises the receiver's duplicate suppression.  The server-side
#: counterparts are ``server-before-dispatch`` / ``server-before-reply``.
FAILPOINT_CLIENT_BEFORE_SEND = "client-before-send"
FAILPOINT_CLIENT_AFTER_SEND = "client-after-send"


class WireNetwork:
    """One node of a socket-connected deployment."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Optional[Clock] = None,
        dispatch: Optional[DispatchStrategy] = None,
        address_book: Optional[PeerAddressBook] = None,
        connection_pool: Optional[ConnectionPool] = None,
        system_handlers: Optional[Dict[str, Callable[[Any], Any]]] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_inflight_frames: Optional[int] = None,
    ) -> None:
        self.clock = clock or SystemClock()
        self.dispatch = dispatch or SequentialDispatch()
        self.retry_scheduler = RetryScheduler(self.clock)
        self.address_book = address_book or PeerAddressBook()
        self.statistics = NetworkStatistics()
        self.pool = connection_pool or ConnectionPool()
        #: Named failpoints the serve loop fires; armed explicitly or by a
        #: fault plan's ``crash`` rules.
        self.failpoints = FailpointRegistry()
        self.fault_plan: Optional[FaultPlan] = None
        self.fault_injector = None
        #: Optional per-peer breaker consulted by channels over this node
        #: (see :meth:`attach_circuit_breaker`).
        self.circuit_breaker: Optional[CircuitBreaker] = None
        #: Optional lazy channel manager (see :meth:`attach_peer_manager`).
        self.peer_manager = None
        self.audit_log = None
        self._endpoints: Dict[str, Endpoint] = {}
        # ``system_handlers`` passed here are installed BEFORE the server
        # starts accepting: on a fixed port, a fast peer's first frame can
        # land the instant the listener is up, and it must find the node's
        # infrastructure operations (credential exchange) already serving.
        self._system_handlers: Dict[str, Callable[[Any], Any]] = dict(
            system_handlers or {}
        )
        self._lock = threading.RLock()
        self._message_counter = MonotonicCounter(1)
        self._seq = MonotonicCounter(1)
        self._recorder = MessageTraceRecorder()
        self.trace_enabled = False
        self._closed = False
        if fault_plan is not None:
            self.set_fault_plan(fault_plan)
        self.server = WireServer(
            self._serve_frame,
            host=host,
            port=port,
            max_inflight=max_inflight_frames,
            shed_reply=self._shed_reply,
            on_frame_error=self._on_frame_error,
            failpoints=self.failpoints,
        )

    # -- node identity -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def set_dispatch(self, dispatch: DispatchStrategy) -> None:
        """Switch the handler-dispatch strategy for subsequent batches."""
        self.dispatch = dispatch

    def set_retry_scheduler(self, scheduler: RetryScheduler) -> None:
        """Replace the retry scheduler (see simulator)."""
        self.retry_scheduler = scheduler

    # -- endpoint management -------------------------------------------------------

    def register(self, address: str, handler: EndpointHandler) -> Endpoint:
        """Register (or replace) the local handler for ``address``."""
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
            raise UnknownEndpointError(
                f"no endpoint registered at {address!r} on this node"
            ) from None

    def addresses(self) -> List[str]:
        """Locally hosted endpoint addresses."""
        return sorted(self._endpoints)

    def set_online(self, address: str, online: bool) -> None:
        """Take a *local* endpoint down (or back up); peers see DeliveryError."""
        self.endpoint(address).online = online

    def register_system_handler(self, operation: str, handler: Callable[[Any], Any]) -> None:
        """Serve ``operation`` on the node's reserved system destination."""
        with self._lock:
            self._system_handlers[operation] = handler

    # -- fault plane / observability -----------------------------------------------

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Attach (or, with ``None``, detach) a seeded fault plan.

        Subsequent admissions consult the plan's injector; its ``crash``
        rules are routed through :attr:`failpoints` so the serve loop fires
        them deterministically.  System traffic (credential exchange, peer
        introduction) is never faulted -- it is unaccounted infrastructure,
        exactly as on the simulator.
        """
        with self._lock:
            self.fault_plan = plan
            self.fault_injector = plan.injector() if plan is not None else None
        self.failpoints.bind_injector(self.fault_injector)

    def attach_audit_log(self, audit_log) -> None:
        """Route transport-level events (breaker transitions, shedding,
        frame-decode failures) to ``audit_log`` under ``"transport"``."""
        self.audit_log = audit_log
        if self.peer_manager is not None:
            self.peer_manager.attach_audit_log(audit_log)

    def attach_peer_manager(self, manager) -> None:
        """Route remote destination resolution through a lazy channel manager.

        With a :class:`~repro.peering.PeerChannelManager` attached, a
        remote destination's first send creates its channel on demand (the
        manager's resolver typically performs the credential introduction)
        instead of requiring the whole peer set to be pre-registered, and
        idle channels are evicted under the manager's policy.  Channel
        evictions are recorded in this node's audit log when one is
        attached.
        """
        self.peer_manager = manager
        if self.audit_log is not None:
            manager.attach_audit_log(self.audit_log)

    def attach_circuit_breaker(self, breaker: CircuitBreaker) -> None:
        """Install a per-peer breaker; channels over this node consult it."""
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
        except Exception:  # noqa: BLE001 - observability must not break serving
            pass

    def _on_frame_error(self, error: Exception) -> None:
        """An inbound frame failed to decode; the connection is being killed.

        Receiver-side observability only: the *sender* accounts the drop
        when its request fails (sender-side accounting keeps node sums equal
        to the simulator's global view), but the poisoned stream is counted
        and audited here so it is never silent.
        """
        with self._lock:
            self.statistics.frame_decode_failures += 1
        self._audit(
            f"{self.host}:{self.port}",
            {
                "event": "frame-decode-failure",
                "error": str(error),
                "action": "connection closed",
            },
        )

    def _shed_reply(self, raw_request: bytes) -> bytes:
        """Build the retryable error reply for a load-shed inbound frame."""
        seq = 0
        try:
            request = wirecodec.decode_body(raw_request)
            if isinstance(request, dict):
                seq = request.get("seq", 0) or 0
        except Exception:  # noqa: BLE001 - shed even what we cannot decode
            pass
        with self._lock:
            self.statistics.messages_shed += 1
        self._audit(
            f"{self.host}:{self.port}",
            {"event": "inbound-frame-shed", "seq": seq, "reason": "overload"},
        )
        return self._error_reply(
            seq,
            DeliveryError(
                "node overloaded: inbound frame shed by backpressure; retry"
            ),
            delivered=False,
        )

    # -- sending -------------------------------------------------------------------

    def _admit_locked(self, message: Message) -> None:
        """Sender-side admission accounting, identical for send and send_batch."""
        self.statistics.messages_sent += 1
        self.statistics.per_operation[message.operation] = (
            self.statistics.per_operation.get(message.operation, 0) + 1
        )
        self.statistics.attempts_per_destination[message.destination] = (
            self.statistics.attempts_per_destination.get(message.destination, 0) + 1
        )
        if self.trace_enabled:
            self._recorder.record(message)

    def _decide_locked(self, message: Message) -> Optional[FaultDecision]:
        """Consult the fault injector for one admitted message.

        Called under the admission lock, in entry order, so the draw
        sequence is deterministic -- and identical to the simulator's for
        the same traffic, which is what the cross-transport chaos suite
        leans on.  Duplicate/reorder counters are taken here, mirroring the
        simulator's admission accounting.
        """
        if self.fault_injector is None:
            return None
        decision = self.fault_injector.decide(
            message.sender, message.destination, message.operation
        )
        if decision.duplicate:
            self.statistics.messages_duplicated += 1
        if decision.reorder:
            self.statistics.messages_reordered += 1
        if decision.latency:
            self.statistics.total_latency += decision.latency
        return decision

    def _loss_error(self, message: Message, decision: FaultDecision) -> DeliveryError:
        if decision.partitioned:
            return DeliveryError(
                f"link {message.sender!r} -> {message.destination!r} severed "
                f"by fault plan: {decision.reason}"
            )
        return DeliveryError(
            f"message {message.message_id} from {message.sender!r} to "
            f"{message.destination!r} was lost ({decision.reason})"
        )

    def _account_delivered_locked(self, message: Message) -> None:
        self.statistics.messages_delivered += 1
        self.statistics.deliveries_per_destination[message.destination] = (
            self.statistics.deliveries_per_destination.get(message.destination, 0) + 1
        )
        self.statistics.bytes_delivered += message.encoded_size()
        if message.sizing == "repr":
            self.statistics.messages_sized_by_repr += 1

    def _deliver_local(
        self,
        endpoint: Endpoint,
        message: Message,
        decision: Optional[FaultDecision] = None,
    ) -> Any:
        """Deliver to an endpoint hosted on this node (no socket).

        Injected losses (drop / corrupt / reset / partition window) destroy
        the message before the handler, exactly like on the simulator; a
        duplicate invokes the handler twice.
        """
        if decision is not None and decision.lost:
            with self._lock:
                self.statistics.messages_dropped += 1
            raise self._loss_error(message, decision)
        with self._lock:
            if not endpoint.online:
                self.statistics.messages_dropped += 1
                raise DeliveryError(f"endpoint {message.destination!r} is offline")
            self._account_delivered_locked(message)
        if decision is not None:
            if decision.latency:
                self.clock.sleep(decision.latency)
            if decision.duplicate:
                _tracing.call_in_ctx(message.trace, endpoint.handler, message)
        # Batch dispatch may hop threads: restore the sender's span context
        # around the handler so responder spans stay parented to the run.
        return _tracing.call_in_ctx(message.trace, endpoint.handler, message)

    def _round_trip(
        self,
        hostport: HostPort,
        sender: str,
        destination: str,
        operation: str,
        payload: Any,
        message_id: int,
        fault: Optional[str] = None,
        trace: Optional[Tuple[str, str]] = None,
    ) -> Dict[str, Any]:
        """One request/reply exchange with a peer; returns the reply envelope.

        The single definition of the wire's failure taxonomy, shared by
        protocol and system traffic: :class:`~repro.transport.wire.wirecodec.
        WireCodecError` for an unencodable *request* (permanent,
        input-determined), :class:`FramingError` for a frame-size violation
        (permanent, passed through by the pool unwrapped so retry layers do
        not burn their budget), :class:`DeliveryError` for everything
        transport-shaped -- unreachable peer, corrupt reply frame, lost
        correlation -- which retries recover.
        """
        seq = self._seq.next()
        envelope = {
            "kind": "call",
            "seq": seq,
            "sender": sender,
            "destination": destination,
            "operation": operation,
            "message_id": message_id,
            "payload": payload,
        }
        if trace is not None:
            # In-band span-context propagation.  The key is simply absent
            # when tracing is off, and frame bytes are never what the
            # statistics charge (they use the canonical envelope size), so
            # accounted byte counters are identical either way.
            envelope["trace"] = list(trace)
        request = wirecodec.encode_body(envelope)
        observe = _OBS.observe_round_trip
        started = perf_counter() if observe is not None else 0.0
        raw_reply = self.pool.request(hostport, request, fault=fault)
        if observe is not None:
            observe(perf_counter() - started)
        try:
            reply = wirecodec.decode_body(raw_reply)
        except wirecodec.WireCodecError as error:
            raise DeliveryError(
                f"peer at {hostport[0]}:{hostport[1]} sent an undecodable "
                f"reply: {error}"
            ) from error
        if not isinstance(reply, dict) or reply.get("seq") != seq:
            raise DeliveryError(
                f"peer at {hostport[0]}:{hostport[1]} answered out of sequence "
                f"(frame correlation lost)"
            )
        return reply

    def _deliver_remote(
        self,
        hostport: HostPort,
        message: Message,
        decision: Optional[FaultDecision] = None,
    ) -> Any:
        """Deliver across a socket; accounting resolves on the reply.

        Injected faults are realised here: a drop (or partition window)
        skips the round trip and counts the loss; corrupt-frame and reset
        decisions are performed on the real socket by the pool; a duplicate
        performs a best-effort extra exchange first (same ``message_id``, so
        receivers exercise their duplicate suppression) with the primary
        exchange deciding the outcome.
        """
        fault = None
        if decision is not None:
            if decision.drop or decision.partitioned:
                with self._lock:
                    self.statistics.messages_dropped += 1
                raise self._loss_error(message, decision)
            if decision.latency:
                self.clock.sleep(decision.latency)
            if decision.corrupt:
                fault = "corrupt-frame"
            elif decision.reset:
                fault = "reset"
            elif decision.duplicate:
                try:
                    self._round_trip(
                        hostport,
                        message.sender,
                        message.destination,
                        message.operation,
                        message.payload,
                        message.message_id,
                        trace=message.trace,
                    )
                except Exception:  # noqa: BLE001 - the duplicate leg is
                    pass  # best-effort; the primary leg decides the outcome
        # Client-side crash failpoint, pre-send: a plan's crash rule (or an
        # armed callable, which may SIGKILL this process) fires with the
        # message still unsent -- the peer never sees it.
        if self.failpoints.fire(FAILPOINT_CLIENT_BEFORE_SEND, message) == VERB_CLOSE:
            self.pool.close_peer(hostport)
            with self._lock:
                self.statistics.messages_dropped += 1
            raise DeliveryError(
                f"client crash failpoint before send to {message.destination!r}"
            )
        try:
            reply = self._round_trip(
                hostport,
                message.sender,
                message.destination,
                message.operation,
                message.payload,
                message.message_id,
                fault=fault,
                trace=message.trace,
            )
        except (wirecodec.WireCodecError, DeliveryError, FramingError):
            # Every round-trip failure -- permanent or retryable, see
            # _round_trip -- is a loss: the message never reached a handler.
            with self._lock:
                self.statistics.messages_dropped += 1
            raise
        # Client-side crash failpoint, post-exchange: the peer (most likely)
        # processed the message, but this sender dies before accounting the
        # reply -- the reply-lost window the receivers' dedup absorbs when
        # the retry machinery re-sends.
        if self.failpoints.fire(FAILPOINT_CLIENT_AFTER_SEND, message) == VERB_CLOSE:
            self.pool.close_peer(hostport)
            with self._lock:
                self.statistics.messages_dropped += 1
            raise DeliveryError(
                f"client crash failpoint after send to {message.destination!r}"
            )
        if reply.get("status") == "ok":
            with self._lock:
                self._account_delivered_locked(message)
            return reply.get("result")
        # The peer reports whether the message reached its handler: handler
        # failures count as delivered (the simulator delivers before the
        # handler runs), transport-stage failures count as dropped.
        error = wirecodec.revive_error(
            reply.get("error_type", "DeliveryError"),
            reply.get("error_message", "peer reported an unspecified failure"),
        )
        with self._lock:
            if reply.get("delivered"):
                self._account_delivered_locked(message)
            else:
                self.statistics.messages_dropped += 1
        raise error

    def _resolve(self, destination: str) -> Tuple[Optional[Endpoint], Optional[HostPort]]:
        """Map a destination to a local endpoint or a peer process."""
        with self._lock:
            endpoint = self._endpoints.get(destination)
        if endpoint is not None:
            return endpoint, None
        return None, self.address_book.resolve(destination)

    def send(self, sender: str, destination: str, operation: str, payload: Any) -> Any:
        """Deliver a message and return the destination handler's reply.

        Same contract as :meth:`SimulatedNetwork.send`: raises
        :class:`DeliveryError` on (real) loss, :class:`UnknownEndpointError`
        when no node hosts the destination; callers needing guaranteed
        delivery wrap sends in a :class:`ReliableChannel`.
        """
        message = Message(
            sender=sender,
            destination=destination,
            operation=operation,
            payload=payload,
            message_id=self._message_counter.next(),
        )
        if _OBS.tracing is not None:
            message.trace = _tracing.current_ctx()
        if self.peer_manager is not None:
            return self._send_via_manager(message)
        with self._lock:
            self._admit_locked(message)
            try:
                endpoint, hostport = self._resolve(destination)
            except UnknownEndpointError:
                self.statistics.messages_dropped += 1
                raise
            # Decide AFTER the endpoint resolves (unknown destinations draw
            # no faults), matching the simulator's admission order so seeded
            # draw sequences stay identical across transports.
            decision = self._decide_locked(message)
        if endpoint is not None:
            return self._deliver_local(endpoint, message, decision)
        return self._deliver_remote(hostport, message, decision)

    def _send_via_manager(self, message: Message) -> Any:
        """``send`` with a lazy channel manager attached.

        Channel resolution may perform a credential round trip, so it runs
        *outside* the admission lock; the fault decision is still drawn
        only after the destination resolves (unknown destinations draw no
        faults), keeping seeded draw sequences identical to the
        manager-less path and the simulator.  A failed lazy resolution
        counts as a drop of the admitted message: retryable resolver
        failures surface as :class:`DeliveryError` for the retry machinery,
        unknown peers as permanent :class:`UnknownEndpointError`.
        """
        with self._lock:
            self._admit_locked(message)
            endpoint = self._endpoints.get(message.destination)
        if endpoint is None:
            try:
                hostport = self.peer_manager.resolve(message.destination)
            except (UnknownEndpointError, DeliveryError):
                with self._lock:
                    self.statistics.messages_dropped += 1
                raise
        with self._lock:
            decision = self._decide_locked(message)
        if endpoint is not None:
            return self._deliver_local(endpoint, message, decision)
        return self._deliver_remote(hostport, message, decision)

    def send_batch(
        self, sender: str, entries: List[Tuple[str, str, Any]]
    ) -> List[BatchResult]:
        """Deliver a fan-out, accounting each entry exactly like ``send``.

        Admission runs under one lock acquisition in entry order (counters
        are deterministic regardless of strategy); the admitted deliveries
        then run through the configured :class:`DispatchStrategy` -- under
        :class:`~repro.transport.network.ParallelDispatch` the socket round
        trips of one wave overlap across destinations.  Per-entry failures
        are returned, never raised.
        """
        results: List[BatchResult] = [BatchResult() for _ in entries]
        if self.peer_manager is not None:
            admitted = self._admit_batch_via_manager(sender, entries, results)
        else:
            admitted = self._admit_batch(sender, entries, results)

        # Injected reordering: deterministically defer flagged entries to
        # the back of the wave (stable), mirroring the simulator.
        if any(entry[4] is not None and entry[4].reorder for entry in admitted):
            admitted = [
                e for e in admitted if e[4] is None or not e[4].reorder
            ] + [e for e in admitted if e[4] is not None and e[4].reorder]

        def make_unit(
            index: int,
            message: Message,
            endpoint: Optional[Endpoint],
            hostport: Optional[HostPort],
            decision: Optional[FaultDecision],
        ) -> Callable[[], None]:
            def unit() -> None:
                try:
                    if endpoint is not None:
                        results[index].result = self._deliver_local(
                            endpoint, message, decision
                        )
                    else:
                        results[index].result = self._deliver_remote(
                            hostport, message, decision
                        )
                except Exception as error:  # per-entry isolation, as simulated
                    results[index].error = error

            return unit

        self.dispatch.run([make_unit(*entry) for entry in admitted])
        return results

    def _admit_batch(
        self,
        sender: str,
        entries: List[Tuple[str, str, Any]],
        results: List[BatchResult],
    ) -> List[
        Tuple[
            int,
            Message,
            Optional[Endpoint],
            Optional[HostPort],
            Optional[FaultDecision],
        ]
    ]:
        """Admission + resolution + fault draws, one lock pass in entry order."""
        admitted = []
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
                self._admit_locked(message)
                try:
                    endpoint, hostport = self._resolve(destination)
                except UnknownEndpointError as error:
                    self.statistics.messages_dropped += 1
                    results[index].error = error
                    continue
                decision = self._decide_locked(message)
                admitted.append((index, message, endpoint, hostport, decision))
        return admitted

    def _admit_batch_via_manager(
        self,
        sender: str,
        entries: List[Tuple[str, str, Any]],
        results: List[BatchResult],
    ) -> List[
        Tuple[
            int,
            Message,
            Optional[Endpoint],
            Optional[HostPort],
            Optional[FaultDecision],
        ]
    ]:
        """Batch admission with lazy channel resolution between lock passes.

        Mirrors :meth:`_send_via_manager`: admission (entry order, one lock
        pass), then manager resolution outside the lock -- a wave touching
        many cold peers creates their channels here, possibly evicting
        others -- then fault draws in entry order for the entries that
        resolved, matching the manager-less draw sequence.
        """
        staged = []
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
                self._admit_locked(message)
                staged.append((index, message, self._endpoints.get(destination)))
        resolved = []
        for index, message, endpoint in staged:
            hostport = None
            if endpoint is None:
                try:
                    hostport = self.peer_manager.resolve(message.destination)
                except (UnknownEndpointError, DeliveryError) as error:
                    with self._lock:
                        self.statistics.messages_dropped += 1
                    results[index].error = error
                    continue
            resolved.append((index, message, endpoint, hostport))
        with self._lock:
            return [
                (index, message, endpoint, hostport, self._decide_locked(message))
                for index, message, endpoint, hostport in resolved
            ]

    # -- system (infrastructure) requests ------------------------------------------

    def system_request(self, hostport: HostPort, operation: str, payload: Any) -> Any:
        """Call a peer node's system handler (unaccounted infrastructure traffic).

        Same round-trip taxonomy as protocol traffic (see
        :meth:`_round_trip`) minus the statistics; raises the error the
        peer's system handler raised when the call itself failed there.
        """
        reply = self._round_trip(
            hostport, SYSTEM_ADDRESS, SYSTEM_ADDRESS, operation, payload, 0
        )
        if reply.get("status") == "ok":
            return reply.get("result")
        raise wirecodec.revive_error(
            reply.get("error_type", "DeliveryError"),
            reply.get("error_message", "peer reported an unspecified failure"),
        )

    # -- serving -------------------------------------------------------------------

    def _serve_frame(self, raw_request: bytes) -> bytes:
        """Handle one inbound frame; never raises (errors become replies)."""
        seq = 0
        try:
            request = wirecodec.decode_body(raw_request)
            if not isinstance(request, dict) or request.get("kind") != "call":
                raise wirecodec.WireCodecError("frame is not a call envelope")
            seq = request.get("seq", 0)
            destination = request.get("destination", "")
            operation = request.get("operation", "")
            if destination == SYSTEM_ADDRESS:
                result = self._serve_system(operation, request.get("payload"))
                return self._ok_reply(seq, result)
            with self._lock:
                endpoint = self._endpoints.get(destination)
            if endpoint is None:
                raise UnknownEndpointError(
                    f"no endpoint registered at {destination!r}"
                )
            if not endpoint.online:
                raise DeliveryError(f"endpoint {destination!r} is offline")
        except Exception as error:  # transport stage: message never delivered
            return self._error_reply(seq, error, delivered=False)
        message = Message(
            sender=request.get("sender", ""),
            destination=destination,
            operation=operation,
            payload=request.get("payload"),
            message_id=request.get("message_id", -1),
        )
        trace = request.get("trace")
        if trace is not None and isinstance(trace, (list, tuple)) and len(trace) == 2:
            message.trace = (str(trace[0]), str(trace[1]))
        try:
            # Activate the sender's propagated span context (if any) around
            # the handler: spans created while serving this frame join the
            # originating run's trace.
            result = _tracing.call_in_ctx(message.trace, endpoint.handler, message)
            return self._ok_reply(seq, result)
        except Exception as error:  # handler stage: delivered, then failed
            return self._error_reply(seq, error, delivered=True)

    def _serve_system(self, operation: str, payload: Any) -> Any:
        with self._lock:
            handler = self._system_handlers.get(operation)
        if handler is None:
            raise UnknownEndpointError(
                f"this node serves no system operation {operation!r}"
            )
        return handler(payload)

    def _ok_reply(self, seq: int, result: Any) -> bytes:
        try:
            reply = wirecodec.encode_body(
                {"kind": "reply", "seq": seq, "status": "ok", "result": result}
            )
        except wirecodec.WireCodecError as error:
            # The handler returned something the wire cannot carry; report
            # it as a delivered-but-failed call rather than killing the
            # connection.
            return self._error_reply(seq, error, delivered=True)
        if len(reply) > MAX_FRAME_BYTES:
            # An oversized reply would fail write_frame and kill the
            # connection -- which the sender would read as a retryable loss
            # and re-invoke the handler for.  Report the size violation as
            # a delivered-but-failed call instead.
            return self._error_reply(
                seq,
                FramingError(
                    f"handler reply of {len(reply)} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte frame limit"
                ),
                delivered=True,
            )
        return reply

    def _error_reply(self, seq: int, error: BaseException, delivered: bool) -> bytes:
        envelope = {"kind": "reply", "seq": seq, "status": "error", "delivered": delivered}
        envelope.update(wirecodec.flatten_error(error))
        return wirecodec.encode_body(envelope)

    # -- introspection / teardown ----------------------------------------------------

    @property
    def trace(self) -> List[Message]:
        """Originated messages (only populated when ``trace_enabled`` is set)."""
        return self._recorder.messages()

    def clear_trace(self) -> None:
        self._recorder.clear()

    def set_trace_capacity(self, cap: int) -> None:
        """Re-bound the message recorder (existing entries are kept FIFO)."""
        self._recorder.set_cap(cap)

    def reset_statistics(self) -> None:
        self.statistics = NetworkStatistics()

    def close(self) -> None:
        """Stop serving and close every client connection (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.server.close()
        self.pool.close()

    def __enter__(self) -> "WireNetwork":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()
