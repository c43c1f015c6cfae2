"""Evidence store.

Trusted interceptors "have persistent storage for messages (or, more
precisely, evidence extracted from messages)" (assumption 3, Section 3.1).
The :class:`EvidenceStore` keeps evidence records indexed by protocol run so
that all tokens belonging to one interaction can be produced together during
dispute resolution.

Key layout: ``evidence:{owner}:{run}:{type}:{role}:{seq}``, ``seq`` being the
record's position in its run.  The value is the canonical encoding of the
:class:`StoredEvidence` dictionary form,
``{"role":…,"run_id":…,"stored_at":…,"token":…,"token_type":…}``.

Write-path contract: a record is *spliced*, never re-encoded -- the fixed
envelope is written around the token's own cached canonical text
(``token.data_encoded().text``), byte for byte what ``codec.encode`` makes of
the same record -- and writing keeps no decoded copy: records are decoded, and
memoised, when something reads them.  :meth:`EvidenceStore.store_many` hands
its records to the storage step in one ``put_many``
(:mod:`repro.persistence.storage`); the step commits them with the journal,
state and audit records of the same protocol step.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import codec
from repro.clock import Clock, SystemClock
from repro.errors import PersistenceError
from repro.persistence.storage import InMemoryBackend, StorageBackend, SteppedBackend


@dataclass(frozen=True)
class StoredEvidence:
    """A stored evidence record.

    ``token`` holds the serialised non-repudiation token (dictionary form of
    :class:`repro.core.evidence.EvidenceToken`); ``role`` records whether the
    owning party generated or received it, which matters when the record is
    later presented in a dispute.
    """

    run_id: str
    token_type: str
    role: str
    stored_at: float
    token: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "token_type": self.token_type,
            "role": self.role,
            "stored_at": self.stored_at,
            "token": dict(self.token),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StoredEvidence":
        return cls(
            run_id=payload["run_id"],
            token_type=payload["token_type"],
            role=payload["role"],
            stored_at=payload["stored_at"],
            token=dict(payload["token"]),
        )


class EvidenceStore:
    """Evidence records indexed by protocol run identifier.

    Dispute-time queries are index-backed: besides the per-run key index the
    store maintains a per-``(run, token_type)`` index (so
    :meth:`tokens_of_type` touches only matching records), a running total
    of record sizes (so :meth:`storage_bytes` is O(1) and never re-reads the
    backend) and a decoded-record memo filled by reads (so repeated
    :meth:`evidence_for_run` calls decode each record at most once per
    store).  The memo holds records as decoded -- ``token`` mappings whose
    ``details`` are already revived, which
    :meth:`repro.core.evidence.EvidenceToken.from_stored` turns into tokens
    -- and never token objects: a reader revives the few it needs.  All
    indexes are derived state: they are rebuilt from the backend on
    construction and maintained incrementally by :meth:`store_many`.

    On a backend advertising ``supports_prefix_scan`` (the embedded-KV
    SQLite backend) the in-memory indexes are not built at all: opening
    the store reads *nothing*, and every query is an indexed backend
    range scan over the key layout
    ``evidence:{owner}:{run}:{type}:{role}:{seq}`` -- so reopening costs
    O(queried) rather than O(all records), and many processes share one
    store without each paying a full rebuild.  Only the decoded-record
    memo survives in that mode, purely as a cache.
    """

    ROLE_GENERATED = "generated"
    ROLE_RECEIVED = "received"

    def __init__(
        self,
        owner: str,
        backend: Optional[StorageBackend] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.owner = owner
        self._backend = SteppedBackend(
            backend or InMemoryBackend(), self._rebuild_index
        )
        self._clock = clock or SystemClock()
        self._index: Dict[str, List[str]] = {}
        self._type_index: Dict[Tuple[str, str], List[str]] = {}
        self._total_bytes = 0
        self._decoded: Dict[str, StoredEvidence] = {}
        self._lock = threading.RLock()
        # Scan-backed mode: the backend answers prefix queries natively, so
        # no derived state is rebuilt on open -- only per-run next-sequence
        # counters, primed lazily on the first write touching a run.
        self._scan_backed = bool(self._backend.supports_prefix_scan)
        self._sequences: Dict[str, int] = {}
        self._rebuild_index()

    @staticmethod
    def _sequence_of(key: str) -> Optional[int]:
        """The storage-order sequence suffix of an evidence key, if parsable."""
        try:
            return int(key.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            return None

    def _register_locked(
        self, key: str, run_id: str, token_type: str, size: int
    ) -> None:
        """Add one record to every derived index; caller must hold the lock."""
        self._index.setdefault(run_id, []).append(key)
        self._type_index.setdefault((run_id, token_type), []).append(key)
        self._total_bytes += size

    def _rebuild_index(self) -> None:
        """Forget all derived state and recover it from the backend.

        Runs on open, and again when a commit carrying this store's records
        failed: whatever the backend kept (nothing of an atomic batch, a
        prefix of a looped one) is then the only truth, so sequence numbers
        are not reused and the totals match the backend.  A scan-backed
        store has nothing to recover, only counters and a memo to drop.

        Backend ``keys()`` order is *insertion* order of that backend
        instance, which for a reopened store is not necessarily the original
        storage order (e.g. a file backend whose index was compacted, or a
        replicated backend filled out of order).  Records are therefore
        ordered per run by the monotonic sequence suffix baked into each key;
        keys with an unparsable suffix sort after the well-formed ones, in
        backend order.
        """
        with self._lock:
            self._index.clear()
            self._type_index.clear()
            self._total_bytes = 0
            self._decoded.clear()
            self._sequences.clear()
            if self._scan_backed:
                return
            per_run: Dict[str, List[Tuple[int, int, str, StoredEvidence, int]]] = {}
            for position, key in enumerate(self._backend.keys()):
                if not key.startswith("evidence:"):
                    continue
                raw = self._backend.get(key)
                if raw is None:
                    continue
                record = StoredEvidence.from_dict(codec.decode(raw))
                sequence = self._sequence_of(key)
                sort_key = (0, sequence) if sequence is not None else (1, position)
                per_run.setdefault(record.run_id, []).append(
                    (sort_key[0], sort_key[1], key, record, len(raw))
                )
            for entries in per_run.values():
                for _, _, key, record, size in sorted(
                    entries, key=lambda entry: (entry[0], entry[1])
                ):
                    self._register_locked(
                        key, record.run_id, record.token_type, size
                    )
                    self._decoded[key] = record

    def _key_for(self, run_id: str, token_type: str, role: str, sequence: int) -> str:
        return f"evidence:{self.owner}:{run_id}:{token_type}:{role}:{sequence}"

    def _owner_prefix(self) -> str:
        return f"evidence:{self.owner}:"

    def _run_prefix(self, run_id: str) -> str:
        return f"evidence:{self.owner}:{run_id}:"

    def _next_sequence_locked(self, run_id: str) -> int:
        """Next per-run sequence number; caller must hold the lock.

        In scan-backed mode the counter is primed from the backend the
        first time a run is touched (one key-only range scan); otherwise
        the in-memory per-run index carries it.
        """
        if not self._scan_backed:
            return len(self._index.get(run_id, []))
        next_sequence = self._sequences.get(run_id)
        if next_sequence is None:
            sequences = [
                self._sequence_of(key)
                for key in self._backend.scan_keys(self._run_prefix(run_id))
            ]
            next_sequence = (
                max((s for s in sequences if s is not None), default=-1) + 1
            )
        return next_sequence

    def _scan_records_locked(
        self, prefix: str, run_id: str, token_type: Optional[str] = None
    ) -> List[StoredEvidence]:
        """Range-scan records under ``prefix`` in storage order.

        Scan order is lexicographic by key, but the sequence suffix is an
        unpadded integer (``10`` sorts before ``2``), so records are
        re-ordered by the parsed suffix.  Decoded records are double-checked
        against ``run_id``/``token_type``: a run id that is a ``:``-joined
        prefix of another run id would otherwise leak that run's records
        into the scan.
        """
        entries = []
        for position, (key, raw) in enumerate(self._backend.scan(prefix)):
            record = self._decoded.get(key)
            if record is None:
                record = StoredEvidence.from_dict(codec.decode(raw))
                self._decoded[key] = record
            if record.run_id != run_id:
                continue
            if token_type is not None and record.token_type != token_type:
                continue
            sequence = self._sequence_of(key)
            sort_key = (0, sequence) if sequence is not None else (1, position)
            entries.append((sort_key, record))
        return [record for _, record in sorted(entries, key=lambda e: e[0])]

    def store(
        self,
        run_id: str,
        token_type: str,
        token: Any,
        role: str = ROLE_RECEIVED,
    ) -> None:
        """Persist one evidence token for ``run_id``.

        ``token`` is either the dictionary form of a token or a token object
        (anything exposing ``to_dict``).  Token objects that also carry their
        canonical encoding (``data_encoded``, e.g.
        :class:`repro.core.evidence.EvidenceToken`) are persisted by splicing
        that cached encoding into the stored record, so a token that is
        stored by several parties is canonically encoded only once.
        """
        self.store_many(run_id, ((token_type, token, role),))

    def store_many(
        self, run_id: str, entries: Iterable[Tuple[str, Any, str]]
    ) -> None:
        """Persist ``(token_type, token, role)`` entries of one protocol step.

        Equivalent to :meth:`store` for each entry in order -- consecutive
        sequence numbers, the same keys and bytes -- under one lock, one
        clock read and one backend ``put_many``.  The batch is as atomic as
        the backend's ``put_many``: when a looping backend fails midway, the
        records it kept stay stored and indexed (:meth:`_rebuild_index`), and the
        error propagates.
        """
        pending = []
        for token_type, token, role in entries:
            if role not in (self.ROLE_GENERATED, self.ROLE_RECEIVED):
                raise PersistenceError(f"unknown evidence role {role!r}")
            pending.append((token_type, role, self._token_text(token)))
        if not pending:
            return
        run_text = codec.escape_str(run_id)
        with self._lock:
            stored_at = codec.encode_text(self._clock.now())
            first = self._next_sequence_locked(run_id)
            items = []
            for offset, (token_type, role, token_text) in enumerate(pending):
                # The record envelope, keys pre-sorted: the canonical encoding
                # of StoredEvidence.to_dict() around the token's own text.
                record = (
                    f'{{"role":"{role}","run_id":{run_text},'
                    f'"stored_at":{stored_at},"token":{token_text},'
                    f'"token_type":{codec.escape_str(token_type)}}}'
                )
                key = self._key_for(run_id, token_type, role, first + offset)
                items.append((key, record.encode("utf-8")))
            self._backend.put_many(items)
            if self._scan_backed:
                self._sequences[run_id] = first + len(items)
            else:
                for (key, encoded), (token_type, _, _) in zip(items, pending):
                    self._register_locked(key, run_id, token_type, len(encoded))

    @staticmethod
    def _token_text(token: Any) -> str:
        """Canonical text of a token: its cached encoding when it has one."""
        data_encoded = getattr(token, "data_encoded", None)
        if callable(data_encoded):
            return data_encoded().text
        to_dict = getattr(token, "to_dict", None)
        return codec.encode_text(dict(to_dict() if callable(to_dict) else token))

    def _record_for_locked(self, key: str) -> StoredEvidence:
        """Decoded record for ``key``, memoised; caller must hold the lock."""
        record = self._decoded.get(key)
        if record is None:
            raw = self._backend.get(key)
            if raw is None:
                raise PersistenceError(f"evidence record {key!r} disappeared")
            record = StoredEvidence.from_dict(codec.decode(raw))
            self._decoded[key] = record
        return record

    def evidence_for_run(self, run_id: str) -> List[StoredEvidence]:
        """Return every stored record for ``run_id`` in storage order.

        Records are served from the decoded-record memo; treat them (and
        their ``token`` mappings) as read-only.
        """
        with self._lock:
            if self._scan_backed:
                return self._scan_records_locked(self._run_prefix(run_id), run_id)
            return [
                self._record_for_locked(key) for key in self._index.get(run_id, [])
            ]

    def tokens_of_type(self, run_id: str, token_type: str) -> List[StoredEvidence]:
        """Return records of one token type for ``run_id``, in storage order.

        Served from the per-``(run, token_type)`` index: records of other
        types are neither read from the backend nor decoded.
        """
        with self._lock:
            if self._scan_backed:
                return self._scan_records_locked(
                    f"{self._run_prefix(run_id)}{token_type}:", run_id, token_type
                )
            return [
                self._record_for_locked(key)
                for key in self._type_index.get((run_id, token_type), [])
            ]

    def run_ids(self) -> List[str]:
        with self._lock:
            if self._scan_backed:
                prefix = self._owner_prefix()
                runs = {
                    key[len(prefix):].rsplit(":", 3)[0]
                    for key in self._backend.scan_keys(prefix)
                }
                return sorted(runs)
            return sorted(self._index)

    def total_records(self) -> int:
        with self._lock:
            if self._scan_backed:
                return self._backend.scan_stats(self._owner_prefix())[0]
            return sum(len(keys) for keys in self._index.values())

    def storage_bytes(self) -> int:
        """Total size of stored evidence in canonical bytes, in O(1).

        Used by the evidence-space-overhead benchmark (paper Section 6 names
        "the space overhead of evidence generated" as a cost dimension).
        Maintained as a running total of the bytes written, so no backend
        reads or re-encodes happen here.  In scan-backed mode the
        total is one backend aggregate query instead (SQL ``SUM`` over the
        owner's key range).
        """
        with self._lock:
            if self._scan_backed:
                return self._backend.scan_stats(self._owner_prefix())[1]
            return self._total_bytes
