"""Protocol handler base classes and protocol-run bookkeeping.

"To execute specific protocols, and meet different application or platform
requirements, custom protocol handlers are registered with the coordinator
service.  The coordinator is responsible for mapping an incoming protocol
message to an appropriate handler." (Section 4.1.)

All protocol handlers provide ``process`` (one-way delivery) and
``process_request`` (request/response delivery) and use the coordinator to
send outgoing messages.  :class:`ProtocolRun` captures the per-run state an
interceptor keeps while the protocol executes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.core.messages import B2BProtocolMessage
from repro.errors import ProtocolError, ProtocolStateError

#: Per-run bounds on duplicate-suppression state.  The dedup window caps how
#: many message ids a run remembers (evicting oldest-first); the response
#: cache keeps the replies recorded for replay to transport duplicates.
#: Real runs see a handful of messages; the bounds cap one *active* run under
#: sustained injected duplication.  A party's memory does not grow with the
#: runs it served because settling a run drops its replies and handler data
#: (see :class:`ProtocolRun`), not because of these bounds.
DEDUP_WINDOW = 256
RESPONSE_CACHE = 64


class RunStatus(Enum):
    """Lifecycle of a protocol run as seen by one party."""

    ACTIVE = "active"
    COMPLETED = "completed"
    ABORTED = "aborted"
    FAILED = "failed"


@dataclass(slots=True)
class ProtocolRun:
    """State kept by a handler for one protocol run.

    While the run is active it holds the replies recorded for replay to
    duplicate requests and whatever its handler keeps in ``data`` (both
    ``None`` until first used).  Settling it (:meth:`complete`,
    :meth:`abort`, :meth:`fail`) drops both: a settled run keeps its ids,
    status and initiator (abort notices are authorised against it) and its
    window of seen message ids, so duplicate one-way messages stay ignored
    and a late request is refused (:meth:`admit_request`) instead of being
    served again.
    """

    run_id: str
    protocol: str
    initiator: str
    responder: str
    status: RunStatus = RunStatus.ACTIVE
    last_step: int = 0
    data: Optional[Dict[str, Any]] = None
    messages_seen: List[str] = field(default_factory=list)
    _responses: Optional[Dict[str, B2BProtocolMessage]] = field(
        default=None, init=False, repr=False
    )

    def record_message(self, message: B2BProtocolMessage) -> bool:
        """Record a message against this run.

        Returns ``False`` when the message id was already seen (a transport
        duplicate, or a sender's retry of a request whose reply was lost),
        which handlers use for at-most-once semantics.  The window is
        bounded at :data:`DEDUP_WINDOW` ids, oldest evicted first.
        """
        if message.message_id in self.messages_seen:
            return False
        self.messages_seen.append(message.message_id)
        del self.messages_seen[:-DEDUP_WINDOW]
        self.last_step = max(self.last_step, message.step)
        return True

    def admit_request(
        self, message: B2BProtocolMessage
    ) -> Optional[B2BProtocolMessage]:
        """Record a request; the recorded reply if it is a duplicate.

        ``None`` means serve it (a new request, or a duplicate whose reply
        is not cached).  A request for a settled run is refused: its replies
        are gone, and serving it again would re-validate and re-store.
        """
        if self.finished:
            raise ProtocolStateError(
                f"run {self.run_id!r} is already {self.status.value}"
            )
        if self.record_message(message):
            return None
        return self.cached_response(message.message_id)

    def cache_response(
        self, message_id: str, response: B2BProtocolMessage
    ) -> None:
        """Remember the response produced for ``message_id`` for replay."""
        responses = {} if self._responses is None else self._responses
        responses[message_id] = response
        if len(responses) > RESPONSE_CACHE:
            del responses[next(iter(responses))]
        self._responses = responses
        # Checked after the write, lock-free: a run settling concurrently
        # either sees the write and drops it, or is seen here.
        if self.finished:
            self._responses = None

    def cached_response(self, message_id: str) -> Optional[B2BProtocolMessage]:
        """The recorded response for a duplicate request, if still cached."""
        return self._responses.get(message_id) if self._responses else None

    @property
    def holds_replay_state(self) -> bool:
        """Whether cached replies or handler data are still held."""
        return self._responses is not None or self.data is not None

    def _settle(self, status: RunStatus) -> None:
        self.status, self._responses, self.data = status, None, None

    def complete(self) -> None:
        self._settle(RunStatus.COMPLETED)

    def abort(self) -> None:
        self._settle(RunStatus.ABORTED)

    def fail(self) -> None:
        self._settle(RunStatus.FAILED)

    @property
    def finished(self) -> bool:
        return self.status is not RunStatus.ACTIVE


class RunRegistry:
    """Thread-safe registry of protocol runs for one handler."""

    def __init__(self) -> None:
        self._runs: Dict[str, ProtocolRun] = {}
        self._lock = threading.RLock()

    def create(self, run: ProtocolRun) -> ProtocolRun:
        with self._lock:
            if run.run_id in self._runs:
                raise ProtocolStateError(f"run {run.run_id!r} already exists")
            self._runs[run.run_id] = run
            return run

    def get_or_create(self, run: ProtocolRun) -> ProtocolRun:
        with self._lock:
            return self._runs.setdefault(run.run_id, run)

    def get(self, run_id: str) -> Optional[ProtocolRun]:
        with self._lock:
            return self._runs.get(run_id)

    def require(self, run_id: str) -> ProtocolRun:
        run = self.get(run_id)
        if run is None:
            raise ProtocolStateError(f"unknown protocol run {run_id!r}")
        return run

    def all_runs(self) -> List[ProtocolRun]:
        with self._lock:
            return list(self._runs.values())

    def active_runs(self) -> List[ProtocolRun]:
        return [run for run in self.all_runs() if not run.finished]


class B2BProtocolHandler:
    """Base class for protocol handlers registered with a coordinator.

    Concrete handlers implement :meth:`process` and/or
    :meth:`process_request`; the coordinator dispatches incoming messages to
    the handler registered under the message's ``protocol`` name.
    """

    #: protocol name this handler serves (used for coordinator registration)
    protocol: str = ""

    def __init__(self) -> None:
        self.runs = RunRegistry()

    def process(self, message: B2BProtocolMessage) -> None:
        """Handle a one-way protocol message."""
        raise ProtocolError(
            f"handler for {self.protocol!r} does not accept one-way messages"
        )

    def process_request(self, message: B2BProtocolMessage) -> B2BProtocolMessage:
        """Handle a request message and return the response message."""
        raise ProtocolError(
            f"handler for {self.protocol!r} does not accept request messages"
        )
