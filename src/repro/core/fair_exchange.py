"""Optimistic fair exchange with an offline TTP.

The direct implementation of NR-Invocation "guarantees safety and liveness if
client and server satisfy the trusted interceptor assumptions.  The
flexibility inherent in our approach means that we can transform these
implementations by introducing a TTP to support execution of fault-tolerant
fair exchange protocols ... This transformation would then allow us to relax
the strong assumptions about the parties to the interaction." (Section 4.)

This module provides that transformation.  The TTP
(:class:`~repro.core.ttp.TTPArbitrator`) stays *offline*: it is only
contacted to *resolve* or *abort* a run when the normal exchange breaks down.

* The **server**, having produced a response but never received the client's
  ``NRR_resp``, presents its ``NRO_req`` and ``NRO_resp`` evidence to the
  arbitrator and receives a ``TTP_AFFIDAVIT`` that stands in for the missing
  receipt.
* The **client**, having sent a request but never received a response, asks
  the arbitrator to *abort* the run and receives a signed ``TTP_ABORT``,
  after which the server can no longer obtain an affidavit for that run.

The first decision (resolve or abort) is final, which keeps the evidence held
by honest parties consistent.

Abort deadlines: instead of parking a thread in a timeout wait before
calling :meth:`FairExchangeClient.request_abort`, a client can register the
deadline as a :class:`~repro.transport.scheduler.RetryScheduler` timer with
:meth:`FairExchangeClient.schedule_abort`.  If the expected response arrives
first, cancelling the returned handle withdraws the deadline; otherwise the
timer fires the abort request on whichever thread drives the scheduler, and
the audit log records how the deadline resolved.
"""

from __future__ import annotations

from typing import Optional

from repro.core.coordinator import B2BCoordinator
from repro.core.evidence import EvidenceToken, TokenType
from repro.core.messages import B2BProtocolMessage
from repro.core.ttp import FAIR_EXCHANGE_PROTOCOL
from repro.crypto.rng import new_unique_id
from repro.errors import FairExchangeError
from repro.transport.scheduler import TimerHandle


class FairExchangeClient:
    """Per-organisation access to the offline arbitrator."""

    def __init__(self, party: str, coordinator: B2BCoordinator, arbitrator_uri: str) -> None:
        self.party = party
        self._coordinator = coordinator
        self._arbitrator_uri = arbitrator_uri

    # -- recovery requests ----------------------------------------------------------

    def request_resolution(self, run_id: str) -> EvidenceToken:
        """Server-side recovery: obtain a TTP affidavit for a missing receipt.

        The caller must hold the ``NRO_req`` it received and the ``NRO_resp``
        it generated for ``run_id``; both are submitted to the arbitrator.
        Raises :class:`FairExchangeError` if the run was already aborted or
        the evidence is incomplete.
        """
        store = self._coordinator.services.evidence_store
        nro_request = self._stored_token(store, run_id, TokenType.NRO_REQUEST)
        nro_response = self._stored_token(store, run_id, TokenType.NRO_RESPONSE)
        if nro_request is None or nro_response is None:
            raise FairExchangeError(
                f"cannot request resolution for {run_id!r}: NRO_req/NRO_resp evidence missing"
            )
        reply = self._send(
            action="resolve",
            run_id=run_id,
            tokens=[nro_request, nro_response],
        )
        token = reply.tokens[0] if reply.tokens else None
        if token is None:
            raise FairExchangeError("arbitrator returned no token")
        if token.token_type != TokenType.TTP_AFFIDAVIT.value:
            raise FairExchangeError(
                f"run {run_id!r} could not be resolved (verdict: {reply.payload.get('verdict')})"
            )
        self._store_and_audit(run_id, token, "resolution")
        return token

    def request_abort(self, run_id: str) -> EvidenceToken:
        """Client-side recovery: abort a run for which no response arrived.

        Raises :class:`FairExchangeError` if the run was already resolved in
        the server's favour.
        """
        reply = self._send(action="abort", run_id=run_id, tokens=[])
        token = reply.tokens[0] if reply.tokens else None
        if token is None:
            raise FairExchangeError("arbitrator returned no token")
        if token.token_type != TokenType.TTP_ABORT.value:
            raise FairExchangeError(
                f"run {run_id!r} could not be aborted (verdict: {reply.payload.get('verdict')})"
            )
        self._store_and_audit(run_id, token, "abort")
        return token

    # -- deadline-driven recovery ------------------------------------------------------

    def schedule_abort(self, run_id: str, timeout: float) -> TimerHandle:
        """Register a fair-exchange abort deadline as a scheduler timer.

        After ``timeout`` seconds, unless the returned handle was cancelled
        (because the awaited response arrived), :meth:`request_abort` runs on
        the thread driving the scheduler -- no thread is parked waiting for
        the deadline.  The timer carries ``run_id`` as its run tag, so
        aborting the whole run through ``RetryScheduler.cancel_run`` also
        withdraws the deadline.  A deadline that fires after the arbitrator
        already resolved the run in the server's favour is recorded in the
        audit log instead of raising on the driving thread.
        """
        def fire() -> None:
            try:
                self.request_abort(run_id)
            except FairExchangeError as error:
                # Final-decision conflict (already resolved) or missing
                # token: the deadline loses the race; the evidence trail
                # still shows what happened.
                self._coordinator.services.audit_log.append(
                    category="nr.fair-exchange",
                    subject=run_id,
                    details={"event": "abort-deadline-refused", "error": str(error)},
                )
            except Exception as error:  # noqa: BLE001 - timer callbacks fire on
                # arbitrary driving threads and must trap their own failures
                # (an unreachable arbitrator raises DeliveryError here); an
                # escape would crash an unrelated run's wait.
                self._coordinator.services.audit_log.append(
                    category="nr.fair-exchange",
                    subject=run_id,
                    details={"event": "abort-deadline-failed", "error": str(error)},
                )

        return self._coordinator.network.retry_scheduler.schedule(
            timeout, fire, run_id=run_id
        )

    # -- helpers -----------------------------------------------------------------------

    def _stored_token(self, store, run_id: str, token_type: TokenType) -> Optional[EvidenceToken]:
        records = store.tokens_of_type(run_id, token_type.value)
        if not records:
            return None
        return EvidenceToken.from_stored(records[0])

    def _send(self, action: str, run_id: str, tokens) -> B2BProtocolMessage:
        message = B2BProtocolMessage(
            run_id=new_unique_id("fex"),
            protocol=FAIR_EXCHANGE_PROTOCOL,
            step=1,
            sender=self.party,
            recipient=self._arbitrator_uri,
            payload={"run_id": run_id, "requested_by": self.party},
            tokens=list(tokens),
            attributes={"action": action},
            reply_to=self._coordinator.address,
        )
        return self._coordinator.request(message)

    def _store_and_audit(self, run_id: str, token: EvidenceToken, event: str) -> None:
        services = self._coordinator.services
        services.evidence_verifier.require_valid(token, expected_issuer=self._arbitrator_uri)
        services.evidence_store.store(
            run_id=run_id,
            token_type=token.token_type,
            token=token,
            role=services.evidence_store.ROLE_RECEIVED,
        )
        services.audit_log.append(
            category="nr.fair-exchange",
            subject=run_id,
            details={"event": event, "token_type": token.token_type},
        )
