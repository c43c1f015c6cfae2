"""Non-repudiable service invocation (NR-Invocation).

Implements the exchange of Section 3.2 (Figure 4(b)), in its simplified
three-message form:

* step 1 -- client interceptor -> server interceptor: ``req, NRO_req``
* step 2 -- server interceptor -> client interceptor: ``resp, NRR_req, NRO_resp``
* step 3 -- client interceptor -> server interceptor: ``NRR_resp``

The client side is driven by a :class:`B2BInvocationHandler` (Section 4.2),
obtained through the :func:`B2BInvocationHandler.get_instance` factory for a
(platform, protocol) pair, exactly as the JBoss NR interceptor does.  The
server side is a :class:`ServerInvocationHandler` protocol handler registered
with the organisation's coordinator; at the appropriate point of the protocol
it passes the client's request through the server-side interceptor chain to
the target component and uses the result to complete the protocol.

At-most-once semantics: the server handler caches the response message per
protocol run, so a retransmitted request is answered from the cache without
re-executing the operation.  The receipt settles the run and drops the
cached response; a request arriving after it is refused, not re-executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import codec
from repro.container.interceptor import Invocation, InvocationResult
from repro.core.coordinator import B2BCoordinator
from repro.core.evidence import EvidenceToken, TokenType
from repro.core.messages import B2BProtocolMessage
from repro.core.protocol import B2BProtocolHandler, ProtocolRun, RunStatus
from repro.crypto.rng import new_unique_id
from repro.errors import (
    EvidenceVerificationError,
    ProtocolAbortedError,
    ProtocolError,
    RemoteInvocationError,
)
from repro.persistence import storage

#: Protocol name used for coordinator handler registration.
NR_INVOCATION_PROTOCOL = "nr-invocation"

#: Audit categories.
AUDIT_CATEGORY_CLIENT = "nr.invocation.client"
AUDIT_CATEGORY_SERVER = "nr.invocation.server"


class InvocationStatus(Enum):
    """Outcome classification carried in the response payload."""

    EXECUTED = "executed"            # the operation ran; value/exception follow
    REJECTED = "rejected"            # request received but not executed
    ABORTED = "aborted"              # client aborted before a result was produced


@dataclass
class B2BInvocation:
    """Generic wrapper for a platform-specific invocation (Section 4.2).

    ``target_party`` identifies the organisation whose service is invoked;
    ``invocation`` is the container-level invocation to execute there.
    """

    target_party: str
    invocation: Invocation
    platform: str = "python"
    protocol: str = "direct"
    consume_response: bool = True

    def request_payload(self) -> Dict[str, Any]:
        """The agreed representation of the request (Section 3.4)."""
        return {
            "target_party": self.target_party,
            "component": self.invocation.component,
            "method": self.invocation.method,
            "args": list(self.invocation.args),
            "kwargs": dict(self.invocation.kwargs),
            "caller": self.invocation.caller,
        }


@dataclass
class InvocationOutcome:
    """Result of a non-repudiable invocation, with the evidence gathered."""

    run_id: str
    status: InvocationStatus
    value: Any = None
    exception: Optional[str] = None
    exception_type: Optional[str] = None
    evidence: Dict[str, EvidenceToken] = field(default_factory=dict)
    consumed: bool = True

    @property
    def succeeded(self) -> bool:
        return self.status is InvocationStatus.EXECUTED and self.exception is None

    def unwrap(self) -> Any:
        """Return the value or raise the propagated failure."""
        if self.status is not InvocationStatus.EXECUTED:
            raise ProtocolAbortedError(
                f"invocation run {self.run_id} was not executed ({self.status.value})"
            )
        if self.exception is not None:
            raise RemoteInvocationError(
                f"remote operation failed: {self.exception_type}: {self.exception}"
            )
        return self.value


class ServerInvocationHandler(B2BProtocolHandler):
    """Server-side protocol handler for NR-Invocation.

    ``dispatcher`` is the callable that passes the request through the
    server-side interceptor chain to the component (normally
    ``Container.dispatch``).
    """

    protocol = NR_INVOCATION_PROTOCOL

    def __init__(
        self,
        party: str,
        coordinator: B2BCoordinator,
        dispatcher: Callable[[Invocation], InvocationResult],
    ) -> None:
        super().__init__()
        self.party = party
        self._coordinator = coordinator
        self._dispatcher = dispatcher

    # -- step 1: request ---------------------------------------------------------

    def process_request(self, message: B2BProtocolMessage) -> B2BProtocolMessage:
        if message.step != 1:
            raise ProtocolError(
                f"unexpected step {message.step} on the request path of "
                f"{self.protocol!r}"
            )
        run = self.runs.get_or_create(
            ProtocolRun(
                run_id=message.run_id,
                protocol=self.protocol,
                initiator=message.sender,
                responder=self.party,
            )
        )
        cached = run.admit_request(message)
        if cached is not None:
            # Retransmission: answer from the cache, do not re-execute.
            return cached
        services = self._coordinator.services
        request_payload = message.payload

        # Verify the client's evidence of origin before doing any work.
        nro_request = message.require_token(TokenType.NRO_REQUEST.value)
        executed = True
        rejection_reason = ""
        try:
            services.evidence_verifier.require_valid(
                nro_request,
                expected_type=TokenType.NRO_REQUEST,
                expected_run_id=message.run_id,
                expected_payload=request_payload,
                expected_issuer=message.sender,
            )
        except EvidenceVerificationError as error:
            executed = False
            rejection_reason = str(error)

        services.evidence_store.store(
            run_id=message.run_id,
            token_type=nro_request.token_type,
            token=nro_request,
            role=services.evidence_store.ROLE_RECEIVED,
        )

        # NRR_req: evidence that the request reached this server.
        nrr_request = services.evidence_builder.build(
            token_type=TokenType.NRR_REQUEST,
            run_id=message.run_id,
            step=2,
            recipient=message.sender,
            payload=request_payload,
            details={"received_by": self.party},
        )
        services.evidence_store.store(
            run_id=message.run_id,
            token_type=nrr_request.token_type,
            token=nrr_request,
            role=services.evidence_store.ROLE_GENERATED,
        )

        if executed:
            response_payload = self._execute(message, request_payload)
        else:
            response_payload = {
                "status": InvocationStatus.REJECTED.value,
                "value": None,
                "exception": rejection_reason,
                "exception_type": "EvidenceVerificationError",
            }
        # Canonicalise once: the same encoding backs the NRO_resp digest, the
        # response message and the client's NRR_resp verification.
        response_payload = codec.canonicalize(response_payload)

        # NRO_resp: evidence that this server produced the response.
        nro_response = services.evidence_builder.build(
            token_type=TokenType.NRO_RESPONSE,
            run_id=message.run_id,
            step=2,
            recipient=message.sender,
            payload=response_payload,
            details={"produced_by": self.party},
        )
        services.evidence_store.store(
            run_id=message.run_id,
            token_type=nro_response.token_type,
            token=nro_response,
            role=services.evidence_store.ROLE_GENERATED,
        )

        services.audit_log.append(
            category=AUDIT_CATEGORY_SERVER,
            subject=message.run_id,
            details={
                "event": "request-processed",
                "client": message.sender,
                "component": request_payload.get("component"),
                "method": request_payload.get("method"),
                "status": response_payload["status"],
            },
        )

        response = B2BProtocolMessage(
            run_id=message.run_id,
            protocol=self.protocol,
            step=2,
            sender=self.party,
            recipient=message.sender,
            payload=response_payload,
            tokens=[nrr_request, nro_response],
            reply_to=self._coordinator.address,
        )
        run.data = {"response_payload": response_payload}
        run.cache_response(message.message_id, response)
        return response

    def _execute(
        self, message: B2BProtocolMessage, request_payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Pass the request through the server-side chain and classify the result."""
        invocation = Invocation(
            component=request_payload["component"],
            method=request_payload["method"],
            args=list(request_payload.get("args", [])),
            kwargs=dict(request_payload.get("kwargs", {})),
            caller=message.sender,
            context={
                "nr.run_id": message.run_id,
                "nr.origin": message.sender,
                "nr.protocol": self.protocol,
            },
        )
        try:
            result = self._dispatcher(invocation)
        except Exception as error:  # infrastructure failure, not business failure
            return {
                "status": InvocationStatus.EXECUTED.value,
                "value": None,
                "exception": str(error),
                "exception_type": type(error).__name__,
            }
        return {
            "status": InvocationStatus.EXECUTED.value,
            "value": result.value,
            "exception": result.exception,
            "exception_type": result.exception_type,
        }

    # -- step 3: receipt of response ------------------------------------------------

    def process(self, message: B2BProtocolMessage) -> None:
        if message.step != 3:
            raise ProtocolError(
                f"unexpected step {message.step} on the one-way path of "
                f"{self.protocol!r}"
            )
        services = self._coordinator.services
        run = self.runs.get(message.run_id)
        if run is None:
            raise ProtocolError(
                f"receipt for unknown invocation run {message.run_id!r}"
            )
        if run.finished or not run.record_message(message):
            return  # duplicate delivery of the receipt
        nrr_response = message.require_token(TokenType.NRR_RESPONSE.value)
        services.evidence_verifier.require_valid(
            nrr_response,
            expected_type=TokenType.NRR_RESPONSE,
            expected_run_id=message.run_id,
            expected_payload=(run.data or {}).get("response_payload"),
            expected_issuer=message.sender,
        )
        services.evidence_store.store(
            run_id=message.run_id,
            token_type=nrr_response.token_type,
            token=nrr_response,
            role=services.evidence_store.ROLE_RECEIVED,
        )
        consumed = bool(nrr_response.details.get("consumed", True))
        services.audit_log.append(
            category=AUDIT_CATEGORY_SERVER,
            subject=message.run_id,
            details={"event": "response-receipt", "consumed": consumed},
        )
        run.complete()

    # -- queries ----------------------------------------------------------------------

    def completed_runs(self) -> List[ProtocolRun]:
        return [run for run in self.runs.all_runs() if run.status is RunStatus.COMPLETED]


class B2BInvocationHandler:
    """Client-side driver of the NR-Invocation protocol (Section 4.2).

    Subclasses (or registered factories) adapt the handler to a platform; the
    default implementation targets this library's container platform
    (``"python"``) and the direct, TTP-free protocol (``"direct"``).
    """

    _factories: Dict[Tuple[str, str], Callable[..., "B2BInvocationHandler"]] = {}

    def __init__(self, party: str, coordinator: B2BCoordinator) -> None:
        self.party = party
        self._coordinator = coordinator

    # -- factory (mirrors B2BInvocationHandler.getInstance) ------------------------

    @classmethod
    def register_factory(
        cls,
        platform: str,
        protocol: str,
        factory: Callable[..., "B2BInvocationHandler"],
        replace: bool = False,
    ) -> None:
        """Register a factory for a (platform, protocol) pair."""
        key = (platform, protocol)
        if key in cls._factories and not replace:
            raise ProtocolError(
                f"an invocation handler factory for {key!r} is already registered"
            )
        cls._factories[key] = factory

    @classmethod
    def get_instance(
        cls, platform: str, protocol: str, party: str, coordinator: B2BCoordinator
    ) -> "B2BInvocationHandler":
        """Return an invocation handler for the given platform and protocol."""
        factory = cls._factories.get((platform, protocol))
        if factory is None and platform == "python" and protocol == "direct":
            factory = cls
        if factory is None:
            raise ProtocolError(
                f"no B2BInvocationHandler registered for platform {platform!r} "
                f"and protocol {protocol!r}"
            )
        return factory(party=party, coordinator=coordinator)

    # -- client-side protocol execution -----------------------------------------------

    def invoke(self, b2b_invocation: B2BInvocation) -> Any:
        """Run the protocol and return the remote operation's value."""
        return self.invoke_with_evidence(b2b_invocation).unwrap()

    def invoke_with_evidence(self, b2b_invocation: B2BInvocation) -> InvocationOutcome:
        """Run the protocol and return the full outcome with evidence.

        One storage step: each protocol step's evidence is committed before
        its message leaves, the closing audit record on return.
        """
        with storage.step():
            services = self._coordinator.services
            run_id = new_unique_id("inv")
            # Canonicalise once: the same encoding backs the NRO_req digest, the
            # request message body and the server-side verification.
            request_payload = codec.canonicalize(b2b_invocation.request_payload())

            nro_request = services.evidence_builder.build(
                token_type=TokenType.NRO_REQUEST,
                run_id=run_id,
                step=1,
                recipient=b2b_invocation.target_party,
                payload=request_payload,
                details={
                    "platform": b2b_invocation.platform,
                    "protocol": b2b_invocation.protocol,
                },
            )
            services.evidence_store.store(
                run_id=run_id,
                token_type=nro_request.token_type,
                token=nro_request,
                role=services.evidence_store.ROLE_GENERATED,
            )

            request_message = B2BProtocolMessage(
                run_id=run_id,
                protocol=NR_INVOCATION_PROTOCOL,
                step=1,
                sender=self.party,
                recipient=b2b_invocation.target_party,
                payload=request_payload,
                tokens=[nro_request],
                reply_to=self._coordinator.address,
            )

            response = self._coordinator.request(request_message)
            return self._handle_response(
                b2b_invocation, run_id, request_payload, nro_request, response
            )

    def _handle_response(
        self,
        b2b_invocation: B2BInvocation,
        run_id: str,
        request_payload: Dict[str, Any],
        nro_request: EvidenceToken,
        response: B2BProtocolMessage,
    ) -> InvocationOutcome:
        services = self._coordinator.services
        if response.run_id != run_id:
            raise ProtocolError(
                f"response run id {response.run_id!r} does not match request {run_id!r}"
            )
        response_payload = response.payload

        nrr_request = response.require_token(TokenType.NRR_REQUEST.value)
        nro_response = response.require_token(TokenType.NRO_RESPONSE.value)
        services.evidence_verifier.require_valid(
            nrr_request,
            expected_type=TokenType.NRR_REQUEST,
            expected_run_id=run_id,
            expected_payload=request_payload,
            expected_issuer=b2b_invocation.target_party,
        )
        services.evidence_verifier.require_valid(
            nro_response,
            expected_type=TokenType.NRO_RESPONSE,
            expected_run_id=run_id,
            expected_payload=response_payload,
            expected_issuer=b2b_invocation.target_party,
        )
        services.evidence_store.store_many(
            run_id,
            [
                (token.token_type, token, services.evidence_store.ROLE_RECEIVED)
                for token in (nrr_request, nro_response)
            ],
        )

        # NRR_resp: receipt (and consumption indication) for the response.
        consumed = b2b_invocation.consume_response
        nrr_response = services.evidence_builder.build(
            token_type=TokenType.NRR_RESPONSE,
            run_id=run_id,
            step=3,
            recipient=b2b_invocation.target_party,
            payload=response_payload,
            details={"consumed": consumed},
        )
        services.evidence_store.store(
            run_id=run_id,
            token_type=nrr_response.token_type,
            token=nrr_response,
            role=services.evidence_store.ROLE_GENERATED,
        )
        receipt_message = B2BProtocolMessage(
            run_id=run_id,
            protocol=NR_INVOCATION_PROTOCOL,
            step=3,
            sender=self.party,
            recipient=b2b_invocation.target_party,
            payload={"consumed": consumed},
            tokens=[nrr_response],
            reply_to=self._coordinator.address,
        )
        self._coordinator.send(receipt_message)

        services.audit_log.append(
            category=AUDIT_CATEGORY_CLIENT,
            subject=run_id,
            details={
                "event": "invocation-complete",
                "server": b2b_invocation.target_party,
                "component": request_payload["component"],
                "method": request_payload["method"],
                "status": response_payload["status"],
                "consumed": consumed,
            },
        )

        status = InvocationStatus(response_payload["status"])
        value = response_payload.get("value") if consumed else None
        return InvocationOutcome(
            run_id=run_id,
            status=status,
            value=value,
            exception=response_payload.get("exception"),
            exception_type=response_payload.get("exception_type"),
            evidence={
                TokenType.NRO_REQUEST.value: nro_request,
                TokenType.NRR_REQUEST.value: nrr_request,
                TokenType.NRO_RESPONSE.value: nro_response,
                TokenType.NRR_RESPONSE.value: nrr_response,
            },
            consumed=consumed,
        )


def nro_request_from(services, run_id: str) -> Optional[EvidenceToken]:
    """Fetch the stored NRO_req token for ``run_id`` from the evidence store."""
    records = services.evidence_store.tokens_of_type(run_id, TokenType.NRO_REQUEST.value)
    if not records:
        return None
    return EvidenceToken.from_stored(records[0])
