"""Key/value storage backends.

The stores in this package (:class:`~repro.persistence.audit_log.AuditLog`,
:class:`~repro.persistence.evidence_store.EvidenceStore`,
:class:`~repro.persistence.state_store.StateStore`) persist canonical byte
records through a :class:`StorageBackend`.  Two backends are provided: a
thread-safe in-memory backend for tests and simulation, and a file backend
that writes one file per record under a directory so evidence survives
process restarts.

Write-path contract: every store writes through a :class:`SteppedBackend`, a
view of its backend that appends each ``put``/``put_many`` to the calling
thread's *step* and lets the store read its own pending records back.  A
protocol step (:func:`step`: a coordinator delivery, one phase of a run, an
invocation) collects the records of every store it touches and
:func:`commit` hands them to their backends in write order, each backend's
consecutive records through one :meth:`StorageBackend.put_many` -- so an
organisation whose stores share one SQLite backend persists a step in one
transaction, all of it or none of it, while the in-memory backend takes its
lock once and the file backend keeps looping :meth:`~StorageBackend.put`
(each record is already crash-atomic on its own).  A write outside any step
is the same path committing at once.  ``commit`` is called where durability
is owed: after every run-journal record (the journal edge is the last record
of its transaction), before a coordinator hands a message to the network
(nothing of the sender is pending when a message leaves), and at step exit
(before a handler's reply returns, before a run's future resolves).

Steps are per thread: records pending on one thread are invisible to every
other thread until committed, and a thread never commits or delays another
thread's records.  When a commit fails, the records the backend did not keep
are dropped, every store that wrote in the step re-derives its in-memory
state from its backend, and the error reaches whoever asked for the commit.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import PersistenceError


class StorageBackend:
    """Minimal ordered key/value store interface.

    Besides point reads the interface carries *prefix scans*
    (:meth:`scan` / :meth:`scan_keys` / :meth:`scan_stats`).  The default
    implementations walk ``keys()``, which any backend supports; backends
    that can answer a prefix scan with an indexed range query (the SQLite
    backend) advertise it with ``supports_prefix_scan = True``, and stores
    use that flag to serve derived indexes straight from the backend
    instead of rebuilding them in memory on open.
    """

    #: True when :meth:`scan` is an indexed range query rather than a
    #: filter over every key.  Stores may skip rebuild-on-open derived
    #: state for such backends.
    supports_prefix_scan = False

    def put(self, key: str, value: bytes) -> None:
        raise NotImplementedError

    def put_many(self, items: Iterable[Tuple[str, bytes]]) -> None:
        """Write ``(key, value)`` pairs in order, as :meth:`put` would.

        Backends override this to make a batch cheaper than its puts (one
        lock, one transaction); only those that say so make it atomic.
        """
        for key, value in items:
            self.put(key, value)

    def get(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def keys(self) -> List[str]:
        """Return all keys in insertion order."""
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[tuple]:
        for key in self.keys():
            value = self.get(key)
            if value is not None:
                yield key, value

    def scan(self, prefix: str) -> List[Tuple[str, bytes]]:
        """Return ``(key, value)`` pairs for keys with ``prefix``, key-sorted.

        Ordering is lexicographic by key (the order an embedded KV's range
        scan yields), *not* insertion order: callers that need storage
        order encode it into the key (zero-padded counters, or a sortable
        sequence suffix they parse back out).
        """
        return [
            (key, value)
            for key in self.scan_keys(prefix)
            for value in (self.get(key),)
            if value is not None
        ]

    def scan_keys(self, prefix: str) -> List[str]:
        """Return keys with ``prefix`` in lexicographic order."""
        return sorted(key for key in self.keys() if key.startswith(prefix))

    def scan_stats(self, prefix: str) -> Tuple[int, int]:
        """Return ``(record_count, total_value_bytes)`` under ``prefix``."""
        count = 0
        total = 0
        for _, value in self.scan(prefix):
            count += 1
            total += len(value)
        return count, total


class _ThreadStep(threading.local):
    """The calling thread's step, and the context manager :func:`step` returns."""

    def __init__(self) -> None:
        self.depth = 0
        #: ``(backend, key) -> value`` in write order; a key written twice
        #: keeps its first position, as it does in every backend.
        self.pending: Dict[Tuple[StorageBackend, str], bytes] = {}
        #: ``reload`` callbacks of the stores that wrote since the last commit.
        self.reloads: Dict["weakref.WeakMethod", None] = {}

    def __enter__(self) -> None:
        self.depth += 1

    def __exit__(self, *exc_info: object) -> None:
        self.depth -= 1
        if self.pending:
            commit()


_STEP = _ThreadStep()


def step() -> _ThreadStep:
    """Open a step on the calling thread (``with step():``); steps nest.

    Every exit commits what the thread has pending, the error path included:
    what a handler wrote before it raised is kept, as it was when each
    write went to the backend on its own.
    """
    return _STEP


def commit() -> None:
    """Write the calling thread's pending records to their backends.

    Records go out in write order, consecutive records of one backend
    through one ``put_many``.  On failure the rest is dropped, the stores
    that wrote in this stretch reload from their backends -- which hold
    whatever prefix a non-atomic backend kept -- and the error propagates.
    """
    thread = _STEP
    if not thread.pending:
        return
    pending, thread.pending = thread.pending, {}
    reloads, thread.reloads = thread.reloads, {}
    try:
        backend, batch = None, []
        for (owner, key), value in pending.items():
            if owner is not backend:
                if batch:
                    backend.put_many(batch)
                backend, batch = owner, []
            batch.append((key, value))
        backend.put_many(batch)
    except BaseException:
        for reload in reloads:
            method = reload()
            if method is not None:
                method()
        raise


def pending_records() -> int:
    """How many records the calling thread has written but not committed."""
    return len(_STEP.pending)


class SteppedBackend(StorageBackend):
    """The view of ``backend`` a store writes and reads through.

    Writes join the calling thread's step (or commit at once when none is
    open) and reads see them; everything else is ``backend``'s.  ``reload``,
    a method of the store, is its way back to a state derived from
    ``backend`` alone: called when a commit carrying its records fails.
    """

    def __init__(
        self, backend: StorageBackend, reload: Optional[Callable[[], None]] = None
    ) -> None:
        self._backend = backend
        # Held weakly: the store holds this view, and a strong reference back
        # would keep a dropped store alive until the next cycle collection.
        self._reload = weakref.WeakMethod(reload) if reload is not None else None
        self.supports_prefix_scan = backend.supports_prefix_scan

    def _pending(self, prefix: str = "") -> Dict[str, bytes]:
        """This thread's uncommitted records under ``prefix``, in write order."""
        backend = self._backend
        return {
            key: value
            for (owner, key), value in _STEP.pending.items()
            if owner is backend and key.startswith(prefix)
        }

    def put(self, key: str, value: bytes) -> None:
        self.put_many(((key, value),))

    def put_many(self, items: Iterable[Tuple[str, bytes]]) -> None:
        backend = self._backend
        rows = []
        for key, value in items:
            if not isinstance(value, (bytes, bytearray)):
                raise PersistenceError("storage values must be bytes")
            rows.append(((backend, key), bytes(value)))
        thread = _STEP
        thread.pending.update(rows)  # after the loop: a bad value rejects all
        if self._reload is not None:
            thread.reloads[self._reload] = None
        if not thread.depth:
            commit()

    def get(self, key: str) -> Optional[bytes]:
        pending = _STEP.pending
        value = pending.get((self._backend, key)) if pending else None
        return value if value is not None else self._backend.get(key)

    def delete(self, key: str) -> None:
        commit()  # a delete takes effect after the writes that preceded it
        self._backend.delete(key)

    # Outside a step nothing is pending and a read is the backend's own.

    def keys(self) -> List[str]:
        keys = self._backend.keys()
        pending = _STEP.pending and self._pending()
        if pending:
            committed = set(keys)
            keys = keys + [key for key in pending if key not in committed]
        return keys

    def scan(self, prefix: str) -> List[Tuple[str, bytes]]:
        records = self._backend.scan(prefix)
        pending = _STEP.pending and self._pending(prefix)
        if pending:
            records = sorted({**dict(records), **pending}.items())
        return records

    def scan_keys(self, prefix: str) -> List[str]:
        keys = self._backend.scan_keys(prefix)
        pending = _STEP.pending and self._pending(prefix)
        if pending:
            keys = sorted(set(keys).union(pending))
        return keys

    def scan_stats(self, prefix: str) -> Tuple[int, int]:
        if _STEP.pending and self._pending(prefix):
            return super().scan_stats(prefix)  # counted over the merged scan
        return self._backend.scan_stats(prefix)


class InMemoryBackend(StorageBackend):
    """Thread-safe dictionary-backed storage."""

    def __init__(self) -> None:
        self._data: Dict[str, bytes] = {}
        self._lock = threading.RLock()

    def put(self, key: str, value: bytes) -> None:
        self.put_many(((key, value),))

    def put_many(self, items: Iterable[Tuple[str, bytes]]) -> None:
        batch = list(items)
        for _, value in batch:
            if not isinstance(value, (bytes, bytearray)):
                raise PersistenceError("storage values must be bytes")
        with self._lock:
            for key, value in batch:
                self._data[key] = bytes(value)

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            return self._data.get(key)

    def delete(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._data.keys())


class FileBackend(StorageBackend):
    """One-file-per-record storage under a directory.

    Keys are encoded to safe file names; an index file preserves insertion
    order so hash-chain verification can replay records in order.

    Writes are crash-atomic: record bytes land in a same-directory temp
    file, are fsynced, and reach their final name through an atomic rename,
    so a process killed mid-write can never leave a torn record -- only a
    ``.tmp`` leftover, which is swept on reopen and never served.  The
    index append is fsynced too, and the index entry is the *commit point*
    of a put: a record file whose index entry never completed (or whose
    trailing index line was torn) is treated as if the put never happened,
    which is exactly the write-ahead semantics the run journal relies on.
    """

    _INDEX_NAME = "_index"
    _TEMP_SUFFIX = ".tmp"

    def __init__(self, directory: str) -> None:
        self._directory = directory
        self._lock = threading.RLock()
        os.makedirs(directory, exist_ok=True)
        self._index_path = os.path.join(directory, self._INDEX_NAME)
        if not os.path.exists(self._index_path):
            with open(self._index_path, "w", encoding="utf-8"):
                pass
        self._sweep_temp_files()
        # In-memory mirror of the committed index (order + membership), so
        # put/get need not re-read the index file on every call.  Torn
        # trailing entries from a killed writer never enter the mirror.
        self._entries: List[str] = []
        self._committed = set()
        for encoded in self._read_index():
            if self._valid_entry(encoded) and encoded not in self._committed:
                self._entries.append(encoded)
                self._committed.add(encoded)
        self._repair_index()

    def _repair_index(self) -> None:
        """Rewrite the index if it differs from the committed entries.

        A writer killed mid-append leaves a torn, newline-less trailing
        line; without a rewrite the next append would concatenate onto it
        and corrupt that entry too.
        """
        canonical = "".join(entry + "\n" for entry in self._entries).encode("utf-8")
        with open(self._index_path, "rb") as index_file:
            raw = index_file.read()
        if raw != canonical:
            self._replace_atomically(self._index_path, canonical)

    def _sweep_temp_files(self) -> None:
        """Remove temp files a killed writer left behind; they never committed.

        Temp names embed the writer's pid (``<final>.<pid>.tmp``): sibling
        processes share evidence directories, so a sweep must only claim
        temps whose writer is gone -- deleting a live writer's temp would
        make its imminent rename fail.
        """
        for name in os.listdir(self._directory):
            if not name.endswith(self._TEMP_SUFFIX):
                continue
            try:
                pid = int(name[: -len(self._TEMP_SUFFIX)].rsplit(".", 1)[1])
                os.kill(pid, 0)  # raises if no such process
                continue  # the writer is alive; its rename is still coming
            except (IndexError, ValueError, ProcessLookupError):
                pass  # unparseable or dead writer: the temp never committed
            except PermissionError:
                continue  # alive, but owned by another user
            try:
                os.remove(os.path.join(self._directory, name))
            except OSError:
                pass  # concurrent sweeper/writer; the file is not served anyway

    def _encode_key(self, key: str) -> str:
        return key.encode("utf-8").hex()

    def _path_for(self, key: str) -> str:
        return os.path.join(self._directory, self._encode_key(key) + ".rec")

    def _read_index(self) -> List[str]:
        with open(self._index_path, "r", encoding="utf-8") as index_file:
            return [line.strip() for line in index_file if line.strip()]

    def _valid_entry(self, encoded: str) -> bool:
        """An index entry committed iff it decodes and its record file exists."""
        try:
            key = bytes.fromhex(encoded).decode("utf-8")
        except ValueError:
            return False  # torn trailing append from a killed writer
        return os.path.exists(self._path_for(key))

    @staticmethod
    def _write_durable(path: str, data: bytes, mode: str) -> None:
        with open(path, mode) as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def _replace_atomically(self, final_path: str, data: bytes) -> None:
        temp_path = f"{final_path}.{os.getpid()}{self._TEMP_SUFFIX}"
        self._write_durable(temp_path, data, "wb")
        os.replace(temp_path, final_path)

    def put(self, key: str, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise PersistenceError("storage values must be bytes")
        with self._lock:
            encoded = self._encode_key(key)
            self._replace_atomically(self._path_for(key), bytes(value))
            if encoded not in self._committed:
                self._write_durable(
                    self._index_path, (encoded + "\n").encode("utf-8"), "ab"
                )
                self._entries.append(encoded)
                self._committed.add(encoded)

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            if self._encode_key(key) not in self._committed:
                return None
            path = self._path_for(key)
            if not os.path.exists(path):
                return None
            with open(path, "rb") as record_file:
                return record_file.read()

    def delete(self, key: str) -> None:
        with self._lock:
            encoded = self._encode_key(key)
            if encoded not in self._committed:
                return
            self._entries.remove(encoded)
            self._committed.discard(encoded)
            # Rewrite the index first (atomic replace): the entry is the
            # commit point, so once it is gone the record is logically
            # deleted even if a crash lands before the file unlink.
            self._replace_atomically(
                self._index_path,
                "".join(entry + "\n" for entry in self._entries).encode("utf-8"),
            )
            path = self._path_for(key)
            if os.path.exists(path):
                os.remove(path)

    def keys(self) -> List[str]:
        with self._lock:
            return [
                bytes.fromhex(encoded).decode("utf-8") for encoded in self._entries
            ]


class StorageProfile:
    """One ``storage=`` selector provisioning every per-organisation backend.

    A profile string names where *all* of an organisation's persistent
    stores (evidence, run journal, audit log) live:

    ``"memory"``
        A fresh :class:`InMemoryBackend` per store -- the default,
        equivalent to passing no backends at all.
    ``"file:<dir>"``
        A crash-atomic :class:`FileBackend` per store under
        ``<dir>/<owner>/<store>``.  Stores get separate directories
        because ``FileBackend`` owns its directory's index file
        exclusively.
    ``"sqlite:<path>"``
        One shared database file, one
        :class:`~repro.persistence.sqlite_backend.SQLiteBackend` (one
        connection) per owner: an organisation's stores share it, so a
        protocol step of theirs commits as one transaction.  Key prefixes
        (``evidence:``/``runjournal:``/``audit:``/``state:`` plus the owner
        URI) already namespace every store and owner, so many organisations
        -- and many OS processes -- share the single embedded-KV file, and
        reopening stores costs O(queried) via prefix scans instead of O(all
        records).
    """

    KINDS = ("memory", "file", "sqlite")

    def __init__(self, kind: str, location: Optional[str] = None) -> None:
        self.kind = kind
        self.location = location
        self._sqlite: Dict[str, StorageBackend] = {}
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, profile: "str | StorageProfile") -> "StorageProfile":
        if isinstance(profile, StorageProfile):
            return profile
        if not isinstance(profile, str):
            raise PersistenceError(
                f"storage profile must be a string, got {type(profile).__name__}"
            )
        kind, _, location = profile.partition(":")
        if kind == "memory" and not location:
            return cls("memory")
        if kind in ("file", "sqlite") and location:
            return cls(kind, location)
        raise PersistenceError(
            f"unknown storage profile {profile!r}: expected 'memory', "
            "'file:<dir>' or 'sqlite:<path>'"
        )

    @staticmethod
    def _safe_segment(owner: str) -> str:
        return "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in owner)

    def backend_for(self, owner: str, store: str) -> StorageBackend:
        """Provision the backend for one store (``evidence``/``runjournal``/
        ``audit``/``state``) of ``owner``."""
        if self.kind == "memory":
            return InMemoryBackend()
        if self.kind == "file":
            return FileBackend(
                os.path.join(self.location, self._safe_segment(owner), store)
            )
        from repro.persistence.sqlite_backend import SQLiteBackend

        with self._lock:
            backend = self._sqlite.get(owner)
            if backend is None:
                backend = self._sqlite[owner] = SQLiteBackend(self.location)
        return backend

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = f":{self.location}" if self.location else ""
        return f"StorageProfile({self.kind}{suffix})"
