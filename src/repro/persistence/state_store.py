"""State store mapping state digests to state representations.

"Non-repudiation evidence will include a signed secure digest of state that
is held in a state store.  Persistence services should support the mapping of
the state digest to the representation of state in the state store."
(Section 3.5.)  For shared information the store additionally keeps the
agreed version history so "a subsequent reconstruction of information state
is a state previously agreed by the organisations who share the information"
(Section 3.4) can be demonstrated.

The version history is itself durable.  Key layout in the backing
:class:`~repro.persistence.storage.StorageBackend`:

``state:{owner}:snapshot:{digest hex}``
    the canonical encoding of a state;
``state:{owner}:history:{object_id}:{version:012d}``
    the digest agreed as that version -- one small entry per version, so
    recording a version costs the same at version 1 and at version 10 000;
``state:{owner}:outcome:{object_id}:{version}``
    the compact *outcome record* ``{run_id, outcome}`` of the run that
    agreed the version (about 0.7 kB for eight parties).  Catch-up serves
    stale peers a signed record rebuilt from it: the proposal from this
    version's snapshot and the outcome payload, the tokens from the run's
    evidence -- each fact is stored once.  A record in the earlier layout
    (the whole served record) still reads: only its ``run_id`` and
    ``outcome`` are used.

Write-path contract: :meth:`StateStore.record_version` writes the snapshot,
the history entry and (when given) the outcome record in that order through
one ``put_many`` into the storage step (:mod:`repro.persistence.storage`),
which commits them with the evidence that justifies them.  Reopening the
store against the same backend rebuilds the
history from a prefix scan of the history entries — so a restarted replica
resumes each shared object at its last *agreed* version instead of
re-registering from configuration.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import codec
from repro.crypto.hashing import secure_hash
from repro.errors import StateStoreError
from repro.persistence.storage import InMemoryBackend, StorageBackend, SteppedBackend


class StateStore:
    """Digest-addressed storage of state snapshots with per-object history."""

    def __init__(self, owner: str, backend: Optional[StorageBackend] = None) -> None:
        self.owner = owner
        self._backend = SteppedBackend(backend or InMemoryBackend(), self._load_history)
        self._history: Dict[str, List[bytes]] = {}
        self._agreed: Dict[str, Set[bytes]] = {}
        self._lock = threading.RLock()
        self._load_history()

    def _load_history(self) -> None:
        """Rebuild the per-object version history from the backend.

        One prefix scan over the history entries (every backend has one, if
        only the default walk over ``keys()``), so memory, file and SQLite
        backends all make the agreed history survive a restart.  The scan is
        key-sorted and versions are zero-padded, so each object's entries
        arrive in version order; a gap means a lost write and fails closed.
        So does a key without the version suffix: it was written by the
        earlier one-list-per-object layout, which this store cannot read and
        must not silently forget.  Runs on open, and again when a commit
        carrying this store's records failed.
        """
        prefix = f"state:{self.owner}:history:"
        with self._lock:
            self._history.clear()
            self._agreed.clear()
            for key, digest in self._backend.scan(prefix):
                object_id, _, version = key[len(prefix):].rpartition(":")
                if not (len(version) == 12 and version.isdigit()):
                    raise StateStoreError(
                        f"{key!r} is not a per-version history entry: the store "
                        f"of {self.owner!r} was written in the earlier "
                        "one-list-per-object layout, which is not supported"
                    )
                if int(version) != self.version_count(object_id):
                    raise StateStoreError(
                        f"history of {object_id!r} is broken at entry {version!r}"
                    )
                self._append(object_id, digest)

    def _append(self, object_id: str, digest: bytes) -> None:
        self._history.setdefault(object_id, []).append(digest)
        self._agreed.setdefault(object_id, set()).add(digest)

    # -- digest-addressed snapshots -------------------------------------------

    def store_state(self, state: Any) -> bytes:
        """Store a snapshot of ``state`` and return its digest.

        The digest is computed over the canonical encoding of the state, so
        two parties that agree on a state value necessarily agree on its
        digest.
        """
        digest, item = self._snapshot_item(state)
        with self._lock:
            self._backend.put(*item)
        return digest

    def resolve_digest(self, digest: bytes) -> Any:
        """Return the state previously stored under ``digest``."""
        raw = self._backend.get(self._snapshot_key(digest))
        if raw is None:
            raise StateStoreError(
                f"state store of {self.owner!r} has no state for digest {digest.hex()}"
            )
        return codec.decode(raw)

    def has_digest(self, digest: bytes) -> bool:
        return self._backend.get(self._snapshot_key(digest)) is not None

    @staticmethod
    def digest_of(state: Any) -> bytes:
        """Compute the canonical digest of ``state`` without storing it."""
        return secure_hash(codec.encode(state))

    def _snapshot_key(self, digest: bytes) -> str:
        return f"state:{self.owner}:snapshot:{digest.hex()}"

    def _snapshot_item(self, state: Any) -> Tuple[bytes, Tuple[str, bytes]]:
        """The digest of ``state`` and the backend item that stores it."""
        encoded = codec.encode(state)
        digest = secure_hash(encoded)
        return digest, (self._snapshot_key(digest), encoded)

    def _history_key(self, object_id: str, version: int) -> str:
        return f"state:{self.owner}:history:{object_id}:{version:012d}"

    def _outcome_key(self, object_id: str, version: int) -> str:
        return f"state:{self.owner}:outcome:{object_id}:{version}"

    def _outcome_item(
        self, object_id: str, version: int, record: Dict[str, Any]
    ) -> Tuple[str, bytes]:
        return self._outcome_key(object_id, version), codec.encode(record)

    # -- per-object agreed history ---------------------------------------------

    def record_version(
        self,
        object_id: str,
        state: Any,
        outcome_version: Optional[int] = None,
        outcome_record: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, bytes]:
        """Record ``state`` as the next agreed version of ``object_id``.

        ``outcome_record`` -- when given -- is the compact ``{run_id,
        outcome}`` record of the run that agreed this state, persisted under
        ``outcome_version`` in the same backend write.  Returns
        ``(version_number, digest)``.
        """
        digest, snapshot = self._snapshot_item(state)
        with self._lock:
            version = self.version_count(object_id)
            items = [snapshot, (self._history_key(object_id, version), digest)]
            if outcome_record is not None:
                items.append(
                    self._outcome_item(object_id, outcome_version, outcome_record)
                )
            self._backend.put_many(items)
            self._append(object_id, digest)
            return version, digest

    def version_count(self, object_id: str) -> int:
        with self._lock:
            return len(self._history.get(object_id, ()))

    def version_digest(self, object_id: str, version: int) -> bytes:
        with self._lock:
            history = self._history.get(object_id, ())
            if version < 0 or version >= len(history):
                raise StateStoreError(
                    f"{object_id!r} has no agreed version {version}"
                )
            return history[version]

    def latest_digest(self, object_id: str) -> Optional[bytes]:
        with self._lock:
            history = self._history.get(object_id)
            return history[-1] if history else None

    def state_at_version(self, object_id: str, version: int) -> Any:
        """Reconstruct the agreed state of ``object_id`` at ``version``."""
        return self.resolve_digest(self.version_digest(object_id, version))

    def is_agreed_state(self, object_id: str, state: Any) -> bool:
        """Return ``True`` if ``state`` matches any previously agreed version."""
        digest = self.digest_of(state)
        with self._lock:
            return digest in self._agreed.get(object_id, ())

    def object_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._history)

    # -- per-version outcome records (resync source material) ------------------

    def outcome_record(self, object_id: str, version: int) -> Optional[Dict[str, Any]]:
        """The stored outcome record for ``version``, or ``None`` if absent."""
        raw = self._backend.get(self._outcome_key(object_id, version))
        if raw is None:
            return None
        return codec.decode(raw)
