"""Embedded-KV storage backend on stdlib ``sqlite3``.

The in-memory and file backends answer prefix queries by walking every
key, so any store keeping a derived index (the evidence store's per-run
index, the journal's run listing, the audit chain) has to rebuild that
index in memory when it opens -- O(all records) per open, per process.
:class:`SQLiteBackend` is the embedded-KV answer: one database file that
many organisations and many OS processes share, with ``scan(prefix)``
served as an *indexed range query* (``key >= prefix AND key < bound``
over the unique key index), so reopening a store costs O(queried).

Concurrency:

* within a process, one connection per backend guarded by an ``RLock``
  (``check_same_thread=False``: protocol handlers store evidence from
  dispatch threads);
* across processes, WAL journal mode plus a busy timeout -- readers never
  block the single writer and vice versa, which is the sharing model the
  multi-process benchmarks exercise.

Durability: every ``put_many`` commits one transaction for the whole batch
(rolled back as a whole on any error) and a ``put`` is a batch of one, so a
killed process can never leave a torn record or half a batch -- SQLite's
journal gives the same record-or-nothing guarantee the crash-atomic
``FileBackend`` provides via fsync+rename.  The stores write through the
storage step (:mod:`repro.persistence.storage`), which hands this backend
what an organisation's four stores wrote in one protocol step as a single
batch (:class:`StorageProfile` opens one backend per organisation for
that): the step is atomic across stores and costs one transaction.  Every
``sqlite3.Error`` surfaces as :class:`~repro.errors.PersistenceError`.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from typing import Iterable, List, Optional, Tuple

from repro.errors import PersistenceError
from repro.persistence.storage import StorageBackend

_UPSERT = (
    "INSERT INTO kv(key, value) VALUES(?, ?) "
    "ON CONFLICT(key) DO UPDATE SET value=excluded.value"
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kv (
    seq   INTEGER PRIMARY KEY AUTOINCREMENT,
    key   TEXT NOT NULL UNIQUE,
    value BLOB NOT NULL
)
"""


def _scan_bound(prefix: str) -> Optional[str]:
    """Smallest string greater than every string with ``prefix``.

    Computed by incrementing the last incrementable character; ``None``
    means unbounded (empty prefix or a prefix of only ``chr(0x10FFFF)``).
    """
    for index in range(len(prefix) - 1, -1, -1):
        if ord(prefix[index]) < 0x10FFFF:
            return prefix[:index] + chr(ord(prefix[index]) + 1)
    return None


class SQLiteBackend(StorageBackend):
    """Shared embedded key/value store with indexed prefix scans.

    ``keys()`` preserves the interface's insertion-order contract through
    a monotonic ``seq`` column; overwriting an existing key keeps its
    original position, matching the dictionary semantics of
    :class:`~repro.persistence.storage.InMemoryBackend`.
    """

    supports_prefix_scan = True

    def __init__(self, path: str, *, busy_timeout_seconds: float = 30.0) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        try:
            self._connection = sqlite3.connect(
                path, timeout=busy_timeout_seconds, check_same_thread=False
            )
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.execute(_SCHEMA)
            self._connection.commit()
        except sqlite3.Error as error:
            raise PersistenceError(f"cannot open sqlite store {path!r}: {error}")

    # -- core interface ------------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        self.put_many(((key, value),))

    def put_many(self, items: Iterable[Tuple[str, bytes]]) -> None:
        """Upsert the batch in one transaction: all of it or none of it."""
        rows = []
        for key, value in items:
            if not isinstance(value, (bytes, bytearray)):
                raise PersistenceError("storage values must be bytes")
            rows.append((key, sqlite3.Binary(bytes(value))))
        with self._lock:
            try:
                with self._connection:  # commits, or rolls back on error
                    self._connection.executemany(_UPSERT, rows)
            except sqlite3.Error as error:
                keys = ", ".join(repr(key) for key, _ in rows)
                raise PersistenceError(f"sqlite put failed for {keys}: {error}")

    def get(self, key: str) -> Optional[bytes]:
        rows = self._query("SELECT value FROM kv WHERE key = ?", (key,))
        return bytes(rows[0][0]) if rows else None

    def delete(self, key: str) -> None:
        with self._lock:
            try:
                with self._connection:
                    self._connection.execute("DELETE FROM kv WHERE key = ?", (key,))
            except sqlite3.Error as error:
                raise PersistenceError(f"sqlite delete failed for {key!r}: {error}")

    def keys(self) -> List[str]:
        rows = self._query("SELECT key FROM kv ORDER BY seq")
        return [row[0] for row in rows]

    def _query(self, sql: str, params: tuple = ()) -> list:
        with self._lock:
            try:
                return self._connection.execute(sql, params).fetchall()
            except sqlite3.Error as error:
                raise PersistenceError(f"sqlite read failed: {error}")

    # -- indexed prefix scans ------------------------------------------------

    def _range_clause(self, prefix: str) -> Tuple[str, Tuple[str, ...]]:
        bound = _scan_bound(prefix)
        if bound is None:
            return "key >= ?", (prefix,)
        return "key >= ? AND key < ?", (prefix, bound)

    def scan(self, prefix: str) -> List[Tuple[str, bytes]]:
        clause, params = self._range_clause(prefix)
        rows = self._query(
            f"SELECT key, value FROM kv WHERE {clause} ORDER BY key", params
        )
        return [(row[0], bytes(row[1])) for row in rows]

    def scan_keys(self, prefix: str) -> List[str]:
        clause, params = self._range_clause(prefix)
        rows = self._query(f"SELECT key FROM kv WHERE {clause} ORDER BY key", params)
        return [row[0] for row in rows]

    def scan_stats(self, prefix: str) -> Tuple[int, int]:
        clause, params = self._range_clause(prefix)
        ((count, total),) = self._query(
            f"SELECT COUNT(*), COALESCE(SUM(LENGTH(value)), 0) FROM kv WHERE {clause}",
            params,
        )
        return int(count), int(total)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
