"""Append-only, hash-chained audit log.

"Audit ensures that evidence is available in case of dispute and to inform
future interactions" (Section 2).  Every record appended to the log is
included in a hash chain, so any later modification, reordering or deletion
of stored evidence is detectable by :meth:`AuditLog.verify_integrity`.
The log keeps only what no evidence row or outcome record already says:
why a run applied nothing, never that it applied (see ``repro``, "Audit").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro import codec
from repro.clock import Clock, SystemClock
from repro.crypto.hashing import HashChain
from repro.errors import AuditLogError, AuditLogTamperedError
from repro.observability import tracing as _tracing
from repro.observability.runtime import STATE as _OBS
from repro.persistence.storage import InMemoryBackend, StorageBackend, SteppedBackend


@dataclass(frozen=True)
class AuditRecord:
    """One audit log entry."""

    index: int
    category: str
    subject: str
    timestamp: float
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "category": self.category,
            "subject": self.subject,
            "timestamp": self.timestamp,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AuditRecord":
        return cls(
            index=payload["index"],
            category=payload["category"],
            subject=payload["subject"],
            timestamp=payload["timestamp"],
            details=dict(payload.get("details", {})),
        )


class AuditLog:
    """Hash-chained audit trail owned by one party (or TTP)."""

    def __init__(
        self,
        owner: str,
        backend: Optional[StorageBackend] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.owner = owner
        self._backend = SteppedBackend(backend or InMemoryBackend(), self._replay_existing)
        self._clock = clock or SystemClock()
        self._lock = threading.RLock()
        self._replay_existing()

    def _key_for(self, index: int) -> str:
        return f"audit:{self.owner}:{index:012d}"

    def _replay_existing(self) -> None:
        """Rebuild the in-memory hash chain from what the backend holds.

        Runs on open, and again when a commit carrying this log's records
        failed.  One prefix scan (an indexed range query where the backend
        has one): the zero-padded index in each key makes lexicographic scan
        order equal append order.  (The suffix check keeps an owner whose
        URI prefixes another owner's URI from absorbing that owner's records
        in a shared database.)  The log ends at the first missing index: two
        threads' steps commit in either order, so a crash between them can
        leave a later record without an earlier one.
        """
        prefix = f"audit:{self.owner}:"
        with self._lock:
            self._chain = HashChain()
            self._count = 0
            for key, raw in self._backend.scan(prefix):
                suffix = key[len(prefix):]
                if len(suffix) != 12 or not suffix.isdigit():
                    continue
                if int(suffix) != self._count:
                    break
                self._chain.append(raw)
                self._count += 1

    def __len__(self) -> int:
        return self._count

    @property
    def head_digest(self) -> bytes:
        """Digest of the whole log so far; changes with every append."""
        return self._chain.head

    def append(
        self,
        category: str,
        subject: str,
        details: Optional[Mapping[str, Any]] = None,
    ) -> AuditRecord:
        """Append a record and return it.

        ``category`` classifies the event (e.g. ``"nr.invocation"``,
        ``"nr.sharing.decision"``); ``subject`` is normally the protocol run
        identifier so all evidence of one interaction can be retrieved
        together.

        When tracing is enabled and a span is active on the appending
        thread, the record's details gain ``trace_id``/``span_id`` so audit
        events can be joined against the exported span tree (explicit
        ``trace_id``/``span_id`` keys in ``details`` win).
        """
        if not category:
            raise AuditLogError("audit record category must not be empty")
        details = dict(details or {})
        if _OBS.tracing is not None and "trace_id" not in details:
            ctx = _tracing.current_ctx()
            if ctx is not None:
                details["trace_id"], details["span_id"] = ctx
        with self._lock:
            record = AuditRecord(
                index=self._count,
                category=category,
                subject=subject,
                timestamp=self._clock.now(),
                details=details,
            )
            raw = codec.encode(record.to_dict())
            self._backend.put(self._key_for(record.index), raw)
            self._chain.append(raw)
            self._count += 1
            return record

    def record(self, index: int) -> AuditRecord:
        """Return the record at ``index``."""
        raw = self._backend.get(self._key_for(index))
        if raw is None:
            raise AuditLogError(f"no audit record at index {index}")
        return AuditRecord.from_dict(codec.decode(raw))

    def records(
        self,
        category: Optional[str] = None,
        subject: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> List[AuditRecord]:
        """Return records, optionally filtered by category, subject and/or
        the ``trace_id`` their details were stamped with at append time."""
        results = []
        for index in range(self._count):
            record = self.record(index)
            if category is not None and record.category != category:
                continue
            if subject is not None and record.subject != subject:
                continue
            if trace_id is not None and record.details.get("trace_id") != trace_id:
                continue
            results.append(record)
        return results

    def verify_integrity(self) -> bool:
        """Re-derive the hash chain from storage and compare to the live chain.

        Returns ``True`` when the stored records exactly reproduce the chain.
        """
        raw_records = []
        for index in range(self._count):
            raw = self._backend.get(self._key_for(index))
            if raw is None:
                return False
            raw_records.append(raw)
        return self._chain.verify(raw_records)

    def require_integrity(self) -> None:
        """Raise :class:`AuditLogTamperedError` if verification fails."""
        if not self.verify_integrity():
            raise AuditLogTamperedError(
                f"audit log of {self.owner!r} failed hash-chain verification"
            )
