"""Per-destination connection pool with reconnect-on-failure.

The pool owns every client socket of a :class:`~repro.transport.wire.network.
WireNetwork`.  One *connection* carries one request/response exchange at a
time (a request frame out, a reply frame back), so correlation is positional
and a reply can never be attributed to the wrong caller; concurrency towards
one peer comes from pooling several connections, which is what lets a
parallel dispatch strategy overlap a fan-out's socket round trips.

Failure model: every socket-level failure (connect refused, reset, timeout,
EOF mid-frame) closes the affected connection, removes it from the pool and
surfaces as a retryable :class:`~repro.errors.DeliveryError`.  The existing
retry state machines (:class:`repro.transport.delivery.ReliableChannel`)
then drive recovery: their next attempt simply opens a fresh connection.  :meth:`ConnectionPool.kill` closes live sockets on
purpose, and :meth:`ConnectionPool.request` accepts an injected ``fault``
("reset" kills the socket under the request, "corrupt-frame" sends a
deliberately malformed frame) -- both flow through the *same* discard +
:class:`DeliveryError` path as organic failures, which is the point: chaos
plans exercise the real recovery machinery, not a parallel code path.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import DeliveryError
from repro.transport.wire.framing import (
    MAX_FRAME_BYTES,
    FramingError,
    read_frame,
    write_frame,
)

__all__ = ["ConnectionPool"]

HostPort = Tuple[str, int]

#: A length prefix announcing an impossible frame: the receiving server must
#: reject it as a framing violation and kill the connection.
_CORRUPT_FRAME = struct.pack("!I", MAX_FRAME_BYTES + 1) + b"\xde\xad\xbe\xef"


class _Connection:
    """One pooled client socket; used by one request at a time.

    ``sock`` is ``None`` while the entry is a placeholder whose connect is
    still in progress (no kernel resources are held for placeholders).
    """

    __slots__ = ("sock", "hostport", "busy", "alive", "retire")

    def __init__(self, sock: Optional[socket.socket], hostport: HostPort) -> None:
        self.sock = sock
        self.hostport = hostport
        self.busy = False
        self.alive = True
        # Marked by close_peer() on a busy connection: finish the in-flight
        # exchange, then close instead of returning to the pool.
        self.retire = False

    def close(self) -> None:
        self.alive = False
        if self.sock is None:
            return
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class ConnectionPool:
    """Pooled, reconnecting request/response connections, keyed by peer."""

    def __init__(
        self,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        max_connections_per_peer: int = 8,
    ) -> None:
        if max_connections_per_peer < 1:
            raise ValueError("the pool needs at least one connection per peer")
        self._connect_timeout = connect_timeout
        self._request_timeout = request_timeout
        self._max_per_peer = max_connections_per_peer
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._connections: Dict[HostPort, List[_Connection]] = {}
        self._closed = False
        # Bumped by every kill(): a connect that was in progress when a kill
        # swept the pool must not hand back a live connection the sweep
        # could not see (it would dodge both fault injection and close()).
        self._kill_epoch = 0
        # Per-peer counterpart, bumped by close_peer(): a channel eviction
        # must not strand a connection whose connect it could not see,
        # without invalidating in-progress connects to unrelated peers.
        self._peer_epochs: Dict[HostPort, int] = {}
        self.connections_opened = 0
        self.connection_failures = 0
        self.requests_sent = 0
        self.peer_releases = 0

    # -- acquisition --------------------------------------------------------------

    def _connect(self, hostport: HostPort) -> socket.socket:
        sock = None
        try:
            sock = socket.create_connection(hostport, timeout=self._connect_timeout)
            sock.settimeout(self._request_timeout)
            # Frames are small and latency-bound; never batch in the kernel.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as error:
            # Covers option-setting on a just-reset socket too: anything
            # escaping here but DeliveryError would leak the caller's busy
            # pool placeholder and eat a slot forever.
            if sock is not None:
                sock.close()
            with self._lock:
                self.connection_failures += 1
            raise DeliveryError(
                f"cannot connect to peer process at {hostport[0]}:{hostport[1]}: {error}"
            ) from error

    def _acquire(self, hostport: HostPort) -> _Connection:
        with self._condition:
            while True:
                if self._closed:
                    raise DeliveryError("connection pool is closed")
                pool = self._connections.setdefault(hostport, [])
                # Prune dead idle entries; busy ones include placeholders
                # whose connect is still in progress on another thread.
                pool[:] = [conn for conn in pool if conn.alive or conn.busy]
                for conn in pool:
                    if not conn.busy and conn.alive:
                        conn.busy = True
                        return conn
                if len(pool) < self._max_per_peer:
                    placeholder = _Connection(None, hostport)
                    placeholder.busy = True
                    placeholder.alive = False  # not usable until connected
                    pool.append(placeholder)
                    epoch = (self._kill_epoch, self._peer_epochs.get(hostport, 0))
                    break
                self._condition.wait(0.05)
        try:
            sock = self._connect(hostport)
        except DeliveryError:
            with self._condition:
                self._discard(placeholder)
            raise
        with self._condition:
            current = (self._kill_epoch, self._peer_epochs.get(hostport, 0))
            if not self._closed and current == epoch:
                placeholder.sock = sock
                placeholder.alive = True
                self.connections_opened += 1
                return placeholder
            # A close()/kill() swept the pool while we were connecting;
            # honour it instead of smuggling in an unseen connection.
            self._discard(placeholder)
        try:
            sock.close()
        except OSError:
            pass
        raise DeliveryError(
            f"connection to {hostport[0]}:{hostport[1]} was closed by a "
            "concurrent pool shutdown or kill"
        )

    def _discard(self, conn: _Connection) -> None:
        """Drop a connection from its pool slot; caller holds the lock."""
        conn.alive = False
        pool = self._connections.get(conn.hostport, [])
        if conn in pool:
            pool.remove(conn)
        self._condition.notify_all()

    def _release(self, conn: _Connection) -> None:
        with self._condition:
            conn.busy = False
            if conn.retire and conn.alive:
                self._discard(conn)
            else:
                conn = None
            self._condition.notify_all()
        if conn is not None:
            conn.close()

    # -- request/response ---------------------------------------------------------

    def request(
        self, hostport: HostPort, payload: bytes, fault: Optional[str] = None
    ) -> bytes:
        """Send one frame to the peer at ``hostport`` and await its reply.

        Any transport-level failure closes the connection and raises a
        retryable :class:`DeliveryError`; the next attempt reconnects.

        ``fault`` injects a transport failure into this exchange instead of
        performing it (see :meth:`_faulted_request`); the caller's retry
        machinery recovers exactly as it would from the organic equivalent.
        """
        conn = self._acquire(hostport)
        if fault is not None:
            self._faulted_request(conn, hostport, fault)
        try:
            write_frame(conn.sock, payload)
        except FramingError:
            # Outgoing size violation: input-determined, hence *permanent*
            # (retry layers only re-attempt DeliveryError).  The size check
            # fires before any byte is sent, so the connection is intact.
            self._release(conn)
            raise
        except Exception as error:
            with self._condition:
                self._discard(conn)
            conn.close()
            if isinstance(error, DeliveryError):
                raise
            raise DeliveryError(
                f"request to peer process at {hostport[0]}:{hostport[1]} "
                f"failed: {error}"
            ) from error
        try:
            reply = read_frame(conn.sock)
        except Exception as error:
            # Everything on the read side -- EOF, reset, timeout, and a
            # FramingError from a desynced stream -- is transport
            # corruption: close the connection and let retries recover.
            with self._condition:
                self._discard(conn)
            conn.close()
            if isinstance(error, DeliveryError):
                raise
            raise DeliveryError(
                f"request to peer process at {hostport[0]}:{hostport[1]} "
                f"failed: {error}"
            ) from error
        with self._lock:
            self.requests_sent += 1
        self._release(conn)
        return reply

    def _faulted_request(
        self, conn: _Connection, hostport: HostPort, fault: str
    ) -> None:
        """Apply an injected transport fault to an acquired connection.

        Always raises: ``"reset"`` closes the socket under the exchange (the
        peer observes a clean disconnect, the caller a failed request);
        ``"corrupt-frame"`` sends a malformed length prefix the server must
        reject, killing the connection from the far side.  Either way the
        connection is discarded and a retryable :class:`DeliveryError`
        surfaces -- the same taxonomy as organic socket failures.
        """
        try:
            if fault == "reset":
                conn.close()
                raise DeliveryError(
                    f"connection to peer process at {hostport[0]}:{hostport[1]} "
                    "was reset by fault injection"
                )
            if fault == "corrupt-frame":
                conn.sock.sendall(_CORRUPT_FRAME)
                # A correct peer kills the connection on the framing
                # violation; the read below surfaces that as EOF.
                read_frame(conn.sock)
                raise DeliveryError(
                    f"peer process at {hostport[0]}:{hostport[1]} answered a "
                    "corrupt frame instead of closing the connection"
                )
            raise DeliveryError(f"unknown injected fault {fault!r}")
        except Exception as error:
            with self._condition:
                self._discard(conn)
            conn.close()
            if isinstance(error, DeliveryError):
                raise
            raise DeliveryError(
                f"request to peer process at {hostport[0]}:{hostport[1]} "
                f"failed: {error}"
            ) from error

    # -- fault injection and teardown ---------------------------------------------

    def live_connections(self, hostport: Optional[HostPort] = None) -> int:
        """Number of open connections (to one peer, or overall)."""
        with self._lock:
            pools = (
                [self._connections.get(hostport, [])]
                if hostport is not None
                else list(self._connections.values())
            )
            return sum(1 for pool in pools for conn in pool if conn.alive)

    def kill(self, hostport: Optional[HostPort] = None) -> int:
        """Forcibly close open connections (all peers, or one).

        The fault-injection hook: in-flight requests on the killed sockets
        fail with a retryable :class:`DeliveryError` and the retry engines
        reconnect on their next attempt.  Returns how many were closed.
        """
        with self._condition:
            self._kill_epoch += 1  # connects in progress discard themselves
            victims = [
                conn
                for hp, pool in self._connections.items()
                if hostport is None or hp == hostport
                for conn in pool
                if conn.alive
            ]
            for conn in victims:
                self._discard(conn)
        for conn in victims:
            conn.close()
        return len(victims)

    def close_peer(self, hostport: HostPort) -> int:
        """Gracefully release one peer's pooled connections (channel eviction).

        Unlike :meth:`kill`, this is a resource-reclaim path, not a fault:
        idle connections close immediately, while busy ones finish their
        in-flight exchange and close on release instead of returning to
        the pool -- no request is failed.  Returns how many idle
        connections were closed now.
        """
        with self._condition:
            self._peer_epochs[hostport] = self._peer_epochs.get(hostport, 0) + 1
            pool = self._connections.get(hostport, [])
            victims = [conn for conn in pool if conn.alive and not conn.busy]
            for conn in victims:
                self._discard(conn)
            for conn in pool:
                if conn.alive and conn.busy:
                    conn.retire = True
            self.peer_releases += 1
        for conn in victims:
            conn.close()
        return len(victims)

    def close(self) -> None:
        """Close every connection and refuse further requests."""
        with self._condition:
            self._closed = True
        self.kill()
