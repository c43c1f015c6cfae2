"""The B2BCoordinator service.

"Each trusted interceptor provides a B2BCoordinator service for the exchange
of messages with other trusted interceptors.  In the J2EE implementation,
this service is exported as a remote object that remote trusted interceptors
make invocations on to deliver messages. ... Remote invocation of ``deliver``
results in delivery of the given message from the remote party ...
``deliverRequest`` is a convenience method that allows a remote party to
deliver a message and then to wait synchronously for a response. ... The
coordinator is responsible for mapping an incoming protocol message to an
appropriate handler.  The coordinator also provides access to local services
that are not protocol or platform specific." (Section 4.1.)

Routing: the coordinator holds a route table from party URI to the network
address of the coordinator that should receive messages for that party.  In
a *direct* trust domain each peer routes to the peer's own coordinator; in an
*inline TTP* domain peers route to the TTP, whose relay handler forwards the
message (Section 3.1, Figure 3).

Fan-outs (``request_all_async`` / ``send_all_async``) start one reliable
delivery wave and return a :class:`CoordinatorFanOut` completion handle: on a
healthy network it is complete on return, otherwise retries wait as
scheduler timers.  The blocking forms (``request_all`` / ``send_all``,
the paper's ``deliverRequest``) are a wait on that handle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clock import Clock, SystemClock
from repro.core.evidence import EvidenceBuilder, EvidenceVerifier
from repro.core.messages import B2BProtocolMessage
from repro.core.protocol import B2BProtocolHandler
from repro.errors import ProtocolError
from repro.observability.runtime import STATE as _OBS
from repro.persistence import storage
from repro.persistence.audit_log import AuditLog
from repro.persistence.evidence_store import EvidenceStore
from repro.persistence.run_journal import RunJournal
from repro.persistence.state_store import StateStore
from repro.transport.delivery import RetryPolicy
from repro.transport.network import SimulatedNetwork
from repro.transport.rmi import RemoteCallBatch, RemoteInvoker

#: Name under which every coordinator is exported on its invoker.
COORDINATOR_OBJECT_NAME = "b2b-coordinator"


@dataclass
class LocalServices:
    """The generic, protocol-independent services a coordinator exposes.

    These correspond to the supporting infrastructure of Section 3.5:
    evidence generation and verification (credential management), evidence
    and state persistence, auditing, and a clock for timeouts.
    """

    evidence_builder: EvidenceBuilder
    evidence_verifier: EvidenceVerifier
    evidence_store: EvidenceStore
    state_store: StateStore
    audit_log: AuditLog
    clock: Clock = field(default_factory=SystemClock)
    #: Write-ahead journal of in-flight coordination runs; ``None`` keeps
    #: runs process-local (no durability, no recovery on restart).
    run_journal: Optional[RunJournal] = None


class B2BCoordinator:
    """Message exchange and handler dispatch for one trusted interceptor."""

    def __init__(
        self,
        party: str,
        invoker: RemoteInvoker,
        services: LocalServices,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.party = party
        self.services = services
        self._invoker = invoker
        self._retry_policy = retry_policy
        self._handlers: Dict[str, B2BProtocolHandler] = {}
        self._routes: Dict[str, str] = {}
        self._route_resolver: Optional[Callable[[str], str]] = None
        self._lock = threading.RLock()
        invoker.export(
            COORDINATOR_OBJECT_NAME, self, methods=["deliver", "deliver_request"]
        )

    # -- configuration ----------------------------------------------------------

    @property
    def address(self) -> str:
        """Network address where this coordinator can be reached."""
        return self._invoker.address

    @property
    def network(self) -> SimulatedNetwork:
        return self._invoker._network  # noqa: SLF001 - deliberate internal access

    def register_handler(self, handler: B2BProtocolHandler, replace: bool = False) -> None:
        """Register a protocol handler under its protocol name."""
        if not handler.protocol:
            raise ProtocolError("protocol handler has no protocol name")
        with self._lock:
            if handler.protocol in self._handlers and not replace:
                raise ProtocolError(
                    f"a handler for {handler.protocol!r} is already registered"
                )
            self._handlers[handler.protocol] = handler

    def handler_for(self, protocol: str) -> B2BProtocolHandler:
        with self._lock:
            handler = self._handlers.get(protocol)
        if handler is None:
            raise ProtocolError(
                f"coordinator of {self.party!r} has no handler for protocol {protocol!r}"
            )
        return handler

    def has_handler(self, protocol: str) -> bool:
        with self._lock:
            return protocol in self._handlers

    def registered_protocols(self) -> List[str]:
        with self._lock:
            return sorted(self._handlers)

    # -- routing -----------------------------------------------------------------

    def add_route(self, party: str, coordinator_address: str) -> None:
        """Route messages for ``party`` to ``coordinator_address``.

        In a direct trust domain the address is the party's own coordinator;
        in an inline-TTP domain it is the TTP's coordinator.
        """
        with self._lock:
            self._routes[party] = coordinator_address

    def set_route_resolver(self, resolver: Optional[Callable[[str], str]]) -> None:
        """Resolve unknown parties on demand instead of failing.

        ``resolver(party)`` is invoked on a :meth:`route_for` miss and
        returns the party's coordinator address (a lazy wire transport
        performs the credential introduction as a side effect -- see
        :meth:`WireTransport.ensure_party`).  The result is cached as an
        ordinary route.  The resolver must be thread-safe; a failure
        surfaces as the standard no-route :class:`ProtocolError` carrying
        the underlying error, so per-recipient fan-out isolation treats it
        like any unroutable party.
        """
        with self._lock:
            self._route_resolver = resolver

    def route_for(self, party: str) -> str:
        with self._lock:
            address = self._routes.get(party)
            resolver = self._route_resolver
        if address is None and resolver is not None:
            try:
                address = resolver(party)
            except ProtocolError:
                raise
            except Exception as error:  # noqa: BLE001 - taxonomy-normalising
                raise ProtocolError(
                    f"coordinator of {self.party!r} could not resolve a route "
                    f"to party {party!r}: {error}"
                ) from error
            if address is not None:
                self.add_route(party, address)
        if address is None:
            raise ProtocolError(
                f"coordinator of {self.party!r} has no route to party {party!r}"
            )
        return address

    def known_parties(self) -> List[str]:
        with self._lock:
            return sorted(self._routes)

    # -- incoming (exported remotely) ---------------------------------------------

    def deliver(self, message: B2BProtocolMessage) -> None:
        """Deliver a one-way protocol message from a remote party.

        Handling a message is one storage step: what the handler stores is
        committed together, before the delivery is acknowledged.
        """
        handler = self.handler_for(message.protocol)
        with storage.step():
            handler.process(message)

    def deliver_request(self, message: B2BProtocolMessage) -> B2BProtocolMessage:
        """Deliver a request message and return the handler's response.

        One storage step, committed before the response is returned.
        """
        handler = self.handler_for(message.protocol)
        with storage.step():
            return handler.process_request(message)

    # -- outgoing --------------------------------------------------------------------

    def _invoke(self, address: str, method: str, message: B2BProtocolMessage) -> Any:
        message.reply_to = message.reply_to or self.address
        proxy = self._invoker.proxy_for(
            address, COORDINATOR_OBJECT_NAME, retry_policy=self._retry_policy
        )
        # Nothing of the sender is pending when a message leaves: whatever a
        # peer learns from it, this party can still prove after a crash.
        storage.commit()
        return proxy.invoke(method, [message], {})

    def send(self, message: B2BProtocolMessage) -> None:
        """Send a one-way message to the recipient's (routed) coordinator."""
        self._invoke(self.route_for(message.recipient), "deliver", message)

    def request(self, message: B2BProtocolMessage) -> B2BProtocolMessage:
        """Send a request message and return the recipient's response."""
        return self._invoke(
            self.route_for(message.recipient), "deliver_request", message
        )

    # -- batched fan-out ---------------------------------------------------------

    def _fan_out_async(
        self, messages: List[B2BProtocolMessage], method: str
    ) -> "CoordinatorFanOut":
        calls = []
        results: List[Tuple[Any, Optional[Exception]]] = [(None, None)] * len(messages)
        indices: List[int] = []
        run_id: Optional[str] = None
        tracer = _OBS.tracing
        span_kind = "request" if method == "deliver_request" else "send"
        spans: Dict[int, Any] = {}
        for index, message in enumerate(messages):
            message.reply_to = message.reply_to or self.address
            run_id = run_id or message.run_id
            try:
                address = self.route_for(message.recipient)
            except ProtocolError as error:
                results[index] = (None, error)
                if tracer is not None:
                    tracer.start_span(f"{span_kind}:{message.recipient}").end("error")
                continue
            if tracer is not None:
                spans[index] = tracer.start_span(f"{span_kind}:{message.recipient}")
            calls.append((address, COORDINATOR_OBJECT_NAME, method, [message], {}))
            indices.append(index)
        batch = None
        if calls:
            storage.commit()  # as in _invoke: before the first message leaves
            # A fan-out serves one protocol run; tagging its retry timers
            # with the run id lets a run-level abort withdraw them together.
            batch = self._invoker.call_batch_async(
                calls, retry_policy=self._retry_policy, run_id=run_id
            )
        fan_out = CoordinatorFanOut(results, indices, batch)
        if spans:
            def _end_spans(handle: "CoordinatorFanOut") -> None:
                outcomes = handle.results()
                for span_index, span in spans.items():
                    error = outcomes[span_index][1]
                    span.end("error" if error is not None else "ok")

            fan_out.add_done_callback(_end_spans)
        return fan_out

    def send_all(
        self, messages: List[B2BProtocolMessage]
    ) -> List[Optional[Exception]]:
        """Send one-way messages to each message's routed coordinator.

        The whole fan-out is delivered through one batched network call, so
        shared message content (tokens, a common proposal payload) is encoded
        once rather than once per recipient; under a parallel dispatch
        strategy the recipients process their deliveries concurrently.
        Returns one entry per message: ``None`` on delivery, the
        delivery/handler error otherwise.
        """
        return self.send_all_async(messages).errors()

    def request_all(
        self, messages: List[B2BProtocolMessage]
    ) -> List[Tuple[Optional[B2BProtocolMessage], Optional[Exception]]]:
        """Send request messages as one batched fan-out and collect replies.

        Returns one ``(response, error)`` pair per message, in order; at most
        one element of each pair is set.  Under a parallel dispatch strategy
        the peers validate and respond concurrently -- an 8-party proposal
        round pays one slowest-peer round trip instead of the sum -- so the
        registered protocol handlers must be thread-safe.
        """
        return self.request_all_async(messages).results()

    def send_all_async(
        self, messages: List[B2BProtocolMessage]
    ) -> "CoordinatorFanOut":
        """Start a one-way fan-out; returns its completion handle.

        The handle completes once every delivery is decided (retries wait
        as timers, not sleeps).  Await it with
        :meth:`CoordinatorFanOut.errors`.
        """
        return self._fan_out_async(messages, "deliver")

    def request_all_async(
        self, messages: List[B2BProtocolMessage]
    ) -> "CoordinatorFanOut":
        """Start a request fan-out; await replies with
        :meth:`CoordinatorFanOut.results`."""
        return self._fan_out_async(messages, "deliver_request")

    def send_to_address(self, address: str, message: B2BProtocolMessage) -> None:
        """Send a one-way message to an explicit coordinator address.

        Used by relays and by handlers that learned the peer's coordinator
        address from a message's ``reply_to`` field.
        """
        self._invoke(address, "deliver", message)

    def request_to_address(
        self, address: str, message: B2BProtocolMessage
    ) -> B2BProtocolMessage:
        """Send a request message to an explicit coordinator address."""
        return self._invoke(address, "deliver_request", message)


class CoordinatorFanOut:
    """Completion handle of one coordinator fan-out (requests or one-ways).

    Wraps the underlying :class:`repro.transport.rmi.RemoteCallBatch`
    together with the route-resolution failures that never reached the
    network, preserving per-message result order.  Waiting on the handle
    drives the retry scheduler, so the proposer's thread services other
    runs' due retries while its own fan-out completes.
    """

    def __init__(
        self,
        results: List[Tuple[Any, Optional[Exception]]],
        indices: List[int],
        batch: Optional["RemoteCallBatch"],
    ) -> None:
        self._results = results
        self._indices = indices
        self._batch = batch
        self._resolved = batch is None

    def done(self) -> bool:
        return self._resolved or self._batch.done()

    def add_done_callback(
        self, callback: Callable[["CoordinatorFanOut"], None]
    ) -> None:
        """Invoke ``callback(self)`` once the whole fan-out has resolved.

        This is what lets a protocol phase *register a continuation* instead
        of blocking on :meth:`results`: an already-complete fan-out fires on
        the calling thread, otherwise the thread resolving the last delivery
        fires it.  Continuations should offload non-trivial work through
        :func:`repro.parallel.submit`.
        """
        if self._batch is None:
            callback(self)
            return
        self._batch.add_done_callback(lambda _batch: callback(self))

    def results(self) -> List[Tuple[Any, Optional[Exception]]]:
        """Wait for completion; one ``(response, error)`` pair per message."""
        if not self._resolved:
            for index, outcome in zip(self._indices, self._batch.results()):
                self._results[index] = outcome
            self._resolved = True
        return list(self._results)

    def errors(self) -> List[Optional[Exception]]:
        """Wait for completion; one ``None``-or-error entry per message."""
        return [error for _, error in self.results()]

    def cancel(self) -> None:
        """Withdraw the fan-out's pending retries (see RemoteCallBatch.cancel)."""
        if self._batch is not None:
            self._batch.cancel()
