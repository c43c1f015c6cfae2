"""Cross-process deployment glue: host local parties, trust remote ones.

A :class:`WireTransport` bundles what one *process* of a multi-process trust
domain needs:

* a :class:`~repro.transport.wire.network.WireNetwork` node (serve loop,
  connection pool, peer address book);
* the set of party URIs whose organisations (trusted interceptors) this
  process hosts;
* a credential exchange, so the processes can pin each other's verification
  keys and coordinator addresses before protocol traffic flows.

Credential exchange is symmetric and runs over the node's *system* channel
(unaccounted infrastructure traffic, like the simulator's out-of-band key
agreement): an ``introduce`` request carries the sender's published
credentials and returns the receiver's, so one round trip teaches both
sides.  :meth:`exchange` retries until every wanted remote party has been
learned (covering start-up races where a peer process is still building its
organisations), and introductions that arrive *before* this process created
its organisations are buffered and applied when the organisations appear.

Trust model: keys learned through an introduction are pinned directly
(:meth:`Organisation.trust_key`), i.e. trust-on-first-use over the socket.
That matches the reproduction's simulated deployments, where key exchange
is assumed out of band; a production deployment would authenticate the
introduction channel (TLS with certificate pinning) instead.

Threaded through :meth:`repro.core.trust_domain.TrustDomain.create` via the
``transport=`` parameter: the domain then builds organisations only for
:attr:`local_parties`, publishes their credentials here, and resolves every
other party of the domain through the exchange.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.clock import Clock
from repro.crypto.keys import PublicKey
from repro.errors import (
    DeliveryError,
    ProtocolError,
    UnknownEndpointError,
)
from repro.peering import PeerChannel, PeerChannelManager, PeeringPolicy
from repro.transport.network import DispatchStrategy
from repro.transport.wire.network import WireNetwork
from repro.transport.wire.peers import PeerAddressBook

__all__ = ["WireTransport"]

#: How long one wall-clock pause between credential-exchange retries lasts.
_EXCHANGE_RETRY_SECONDS = 0.05


class WireTransport:
    """One process's view of a socket-connected trust domain."""

    def __init__(
        self,
        local_parties: List[str],
        host: str = "127.0.0.1",
        port: int = 0,
        peers: Optional[Dict[str, Tuple[str, int]]] = None,
        clock: Optional[Clock] = None,
        dispatch: Optional[DispatchStrategy] = None,
        await_remote_credentials: bool = True,
        credential_timeout: float = 30.0,
        advertised_host: Optional[str] = None,
        peering: Optional[PeeringPolicy] = None,
    ) -> None:
        """Create the node and start serving.

        ``local_parties`` are the party URIs this process hosts.  ``peers``
        maps *remote* party URIs to the ``(host, port)`` of the process
        hosting them; parties absent from the map must introduce themselves
        (see :meth:`introduce_to`) before they can be spoken to.  With
        ``await_remote_credentials`` (the default),
        :meth:`TrustDomain.create` blocks until every remote party of the
        domain has been learned, retrying for ``credential_timeout``
        seconds; pass ``False`` for hub processes that cannot know their
        spokes' addresses up front and instead :meth:`wait_for_party`.
        ``advertised_host`` is the address peers are told to connect back
        to; it defaults to the bind ``host`` and is *required* when binding
        a wildcard address (``0.0.0.0`` / ``::``), which peers cannot dial.
        ``peering`` enables the lazy channel manager (see
        :meth:`enable_peering`) with the given policy.
        """
        if not local_parties:
            raise ProtocolError("a wire transport must host at least one party")
        if advertised_host is None:
            if host in ("", "0.0.0.0", "::"):
                raise ProtocolError(
                    f"binding {host or 'the wildcard address'!r} needs an "
                    "explicit advertised_host= -- peers would otherwise be "
                    "introduced to an address they cannot dial"
                )
            advertised_host = host
        self.advertised_host = advertised_host
        self.local_parties = list(local_parties)
        self.await_remote_credentials = await_remote_credentials
        self.credential_timeout = credential_timeout
        self._lock = threading.Lock()
        # Serialises whole absorptions: key pinning and route installation
        # must complete before a party reads as known (wait_for_party /
        # exchange gate on that), and two concurrent introductions for the
        # same party must never interleave their conflict checks.
        self._absorb_lock = threading.Lock()
        #: Credentials of locally hosted parties, as wire-encodable dicts.
        self._published: Dict[str, Dict[str, Any]] = {}
        #: Verification keys learned from peers, by party URI.
        self._known_remote: Dict[str, PublicKey] = {}
        self._remote_addresses: Dict[str, str] = {}
        self._local_orgs: List[Any] = []  # Organisation (untyped: layering)
        # The node starts serving the moment it is constructed, so the
        # system handlers must ride in with it: a fast peer retrying
        # against our (fixed) port may land its first 'introduce' frame
        # before this constructor returns.  Until construction completes,
        # the handlers answer with a *retryable* error, so such a peer
        # simply tries again instead of seeing a permanent failure.
        self._ready = False
        self.peer_manager: Optional[PeerChannelManager] = None
        self.network = WireNetwork(
            host=host,
            port=port,
            clock=clock,
            dispatch=dispatch,
            address_book=PeerAddressBook(peers),
            system_handlers={
                "introduce": self._handle_introduce,
                "credentials": self._handle_credentials,
            },
        )
        self._ready = True
        #: Opt-in metrics/spans HTTP endpoint (see :meth:`serve_observability`).
        self.observability_server: Optional[Any] = None
        if peering is not None:
            self.enable_peering(peering)

    @property
    def host(self) -> str:
        return self.network.host

    @property
    def port(self) -> int:
        return self.network.port

    # -- lazy peering --------------------------------------------------------------

    def enable_peering(self, policy: Optional[PeeringPolicy] = None) -> PeerChannelManager:
        """Manage per-peer channel state lazily instead of pre-registering it.

        Installs a :class:`~repro.peering.PeerChannelManager` on the node:
        the first send to a peer creates its channel on demand (performing
        the credential introduction right there if the peer is only an
        address-book hint), least-recently-used and idle channels are
        evicted under ``policy``, and an evicted channel is transparently
        recreated on its next touch.  Eviction releases the peer's pooled
        sockets (once no other live channel shares the endpoint) and
        forgets its circuit-breaker state -- but never unpins credentials:
        trust-on-first-use means a learned key stays pinned for the
        process's lifetime, so recreation cannot be a substitution window.

        A domain created over a peering-enabled transport skips the eager
        whole-peer-set credential exchange.
        """
        if self.peer_manager is not None:
            raise ProtocolError("peering is already enabled on this transport")
        self.peer_manager = PeerChannelManager(
            resolver=self._resolve_peer_channel,
            policy=policy,
            clock=self.network.clock,
            on_evict=self._on_channel_evicted,
        )
        self.network.attach_peer_manager(self.peer_manager)
        return self.peer_manager

    def _resolve_peer_channel(self, destination: str) -> Tuple[str, int]:
        """Create one peer channel: learn credentials, return the endpoint.

        ``destination`` is a coordinator address, which for wire domains is
        the party URI.  The peer address book supplies the host/port hint
        (seeded via ``peers=`` or a previous introduction); if the party's
        credentials are not pinned yet, one introduction round trip learns
        them.  Failure taxonomy matches delivery: an unmapped party is
        permanent (:class:`UnknownEndpointError`), an unreachable or
        not-yet-published peer is retryable (:class:`DeliveryError`).
        """
        hostport = self.network.address_book.resolve(destination)
        if not self.knows_party(destination):
            # Single attempt: lazy resolution runs inside a send, and the
            # send layer already owns retrying -- a 30s blocking loop here
            # (the eager exchange's courtesy for still-starting peers)
            # would stack under every channel-retry attempt.
            self._introduce(hostport[0], hostport[1], timeout=0.0)
            if not self.knows_party(destination):
                raise DeliveryError(
                    f"peer at {hostport[0]}:{hostport[1]} has not published "
                    f"credentials for {destination!r} yet; retry"
                )
        try:
            return self.network.address_book.resolve(destination)
        except UnknownEndpointError:
            return hostport

    def _on_channel_evicted(
        self, channel: PeerChannel, reason: str, endpoint_unused: bool
    ) -> None:
        """Release transport resources of an evicted channel.

        Pooled sockets are endpoint-level and shared by every party hosted
        on that process, so they are only released when the *last* channel
        using the endpoint goes; breaker state is per-party.  Pinned keys
        and installed routes survive eviction by design (see
        :meth:`enable_peering`).
        """
        if endpoint_unused:
            self.network.pool.close_peer(channel.endpoint)
        breaker = self.network.circuit_breaker
        if breaker is not None:
            breaker.forget(channel.party)

    def ensure_party(self, party: str) -> str:
        """Make ``party`` routable on demand; returns its coordinator address.

        The lazy-mode counterpart of the eager :meth:`exchange`: installed
        as the coordinators' route resolver by
        :meth:`TrustDomain.create`, so a proposer touching a peer for the
        first time triggers exactly one introduction instead of the domain
        pre-exchanging with its whole peer set.
        """
        if not self.knows_party(party):
            try:
                hostport = self.network.address_book.resolve(party)
            except UnknownEndpointError:
                raise ProtocolError(
                    f"party {party!r} is neither known nor in the peer "
                    "address map; add it to peers= or have it introduce itself"
                ) from None
            # Single attempt, like _resolve_peer_channel: the caller is a
            # mid-send route resolution whose retry policy lives above us.
            self._introduce(hostport[0], hostport[1], timeout=0.0)
        with self._lock:
            address = self._remote_addresses.get(party)
            if address is None:
                published = self._published.get(party)
                if published is not None:
                    address = published["coordinator_address"]
        if address is None:
            raise DeliveryError(
                f"peer did not publish credentials for {party!r}; retry"
            )
        return address

    # -- publication (this process's parties) --------------------------------------

    def publish(self, organisation: Any) -> None:
        """Announce a locally hosted organisation to future introductions.

        Called by :meth:`TrustDomain.create` for every local party; also
        pins every already-learned remote party into the new organisation,
        so introductions and organisation creation can happen in either
        order.
        """
        credential = {
            "party": organisation.uri,
            "coordinator_address": organisation.coordinator.address,
            "host": self.advertised_host,
            "port": self.port,
            "public_key": organisation.public_key,
        }
        with self._lock:
            self._published[organisation.uri] = credential
            self._local_orgs.append(organisation)
            known = [
                (party, key, self._remote_addresses[party])
                for party, key in self._known_remote.items()
            ]
        for party, key, address in known:
            organisation.trust_key(party, key, address)

    def _introduction(self) -> Dict[str, Any]:
        with self._lock:
            return {"credentials": [dict(cred) for cred in self._published.values()]}

    # -- absorption (other processes' parties) -------------------------------------

    def _absorb(self, credentials: List[Dict[str, Any]]) -> None:
        with self._absorb_lock:
            for credential in credentials or []:
                self._absorb_one(credential)

    def _absorb_one(self, credential: Dict[str, Any]) -> None:
        party = credential["party"]
        key = credential["public_key"]
        if not isinstance(key, PublicKey):
            raise ProtocolError(
                f"introduction for {party!r} carried no verification key"
            )
        address = credential.get("coordinator_address", party)
        with self._lock:
            if party in self._published:
                return  # we host this party; a peer cannot redefine it
            already = self._known_remote.get(party)
            if already is not None:
                if already.material_fingerprint() == key.material_fingerprint():
                    return  # benign re-introduction of the same key
                # Trust-on-FIRST-use: a later introduction claiming a
                # *different* key for a known party is a substitution
                # attempt (or a misconfigured redeploy), never silently
                # re-pinned.  Served introductions report this back to the
                # introducer as an error reply.
                raise ProtocolError(
                    f"introduction for {party!r} carries a key that "
                    "conflicts with the already-pinned one; refusing to "
                    "re-pin (restart this process to re-key a peer)"
                )
            orgs = list(self._local_orgs)
        # Install the route and pin the key into every organisation FIRST:
        # the moment the party reads as known (wait_for_party / exchange
        # return), it must be fully usable, or a racing proposer would hit
        # a permanent unknown-endpoint failure on a microsecond window.
        self.network.address_book.add(
            address, credential["host"], int(credential["port"])
        )
        for organisation in orgs:
            organisation.trust_key(party, key, address)
        with self._lock:
            self._known_remote[party] = key
            self._remote_addresses[party] = address
            late = [org for org in self._local_orgs if org not in orgs]
        # Organisations published while we were pinning saw neither the
        # snapshot above nor (necessarily) the just-recorded entry.
        for organisation in late:
            organisation.trust_key(party, key, address)

    def _require_ready(self) -> None:
        if not self._ready:
            raise DeliveryError("wire node is still starting; retry")

    def _handle_introduce(self, payload: Any) -> Dict[str, Any]:
        self._require_ready()
        self._absorb((payload or {}).get("credentials", []))
        return self._introduction()

    def _handle_credentials(self, _payload: Any) -> Dict[str, Any]:
        self._require_ready()
        return self._introduction()

    # -- exchange ------------------------------------------------------------------

    def known_parties(self) -> List[str]:
        """Every party this process can verify (local and learned remote)."""
        with self._lock:
            return sorted(set(self._published) | set(self._known_remote))

    def knows_party(self, party: str) -> bool:
        with self._lock:
            return party in self._published or party in self._known_remote

    def introduce_to(self, host: str, port: int, timeout: Optional[float] = None) -> None:
        """Push this process's credentials to the peer node at ``host:port``.

        One round trip also absorbs whatever the peer has published so far;
        then every local replica catches up (:meth:`resync_with_peers`)
        from the members the peer hosts, so a replica that went stale while
        the two processes were disconnected converges as they reconnect.
        Retries (the peer process may still be starting) until ``timeout``
        (default :attr:`credential_timeout`) wall-clock seconds elapse.
        """
        self.resync_with_peers(self._introduce(host, port, timeout))

    def _introduce(self, host: str, port: int, timeout: Optional[float] = None) -> List[str]:
        """The credential round trip of :meth:`introduce_to`; returns the peer's parties.

        Route resolution introduces through here: it runs inside a send, so
        it must not issue protocol requests of its own.
        """
        deadline = time.monotonic() + (
            self.credential_timeout if timeout is None else timeout
        )
        while True:
            try:
                reply = self.network.system_request(
                    (host, port), "introduce", self._introduction()
                )
            except DeliveryError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(_EXCHANGE_RETRY_SECONDS)
                continue
            credentials = (reply or {}).get("credentials", [])
            self._absorb(credentials)
            return [credential["party"] for credential in credentials or []]

    def exchange(self, remote_parties: List[str], timeout: Optional[float] = None) -> None:
        """Learn every party in ``remote_parties``, introducing ourselves too.

        Each wanted party must be resolvable through the peer address book
        (the ``peers`` constructor mapping).  Retries until every party has
        been learned or ``timeout`` elapses -- a peer that is reachable but
        has not yet *published* the wanted party keeps being polled, which
        is what makes simultaneous ``TrustDomain.create`` calls in several
        processes converge.
        """
        budget = self.credential_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while True:
            missing = [
                party for party in remote_parties if not self.knows_party(party)
            ]
            if not missing:
                return
            for party in missing:
                try:
                    hostport = self.network.address_book.resolve(party)
                except UnknownEndpointError:
                    raise ProtocolError(
                        f"remote party {party!r} is not in the peer address map "
                        "and has not introduced itself; add it to peers= or use "
                        "await_remote_credentials=False"
                    ) from None
                try:
                    self._introduce(hostport[0], hostport[1], timeout=0.0)
                except DeliveryError:
                    pass  # peer still starting; retried below
            if all(self.knows_party(party) for party in remote_parties):
                return
            if time.monotonic() >= deadline:
                still = [p for p in remote_parties if not self.knows_party(p)]
                raise DeliveryError(
                    f"credential exchange timed out after {budget:.1f}s; "
                    f"never learned {still}"
                )
            time.sleep(_EXCHANGE_RETRY_SECONDS)

    def wait_for_party(self, party: str, timeout: Optional[float] = None) -> None:
        """Block until ``party`` has introduced itself (hub-process helper)."""
        budget = self.credential_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while not self.knows_party(party):
            if time.monotonic() >= deadline:
                raise DeliveryError(
                    f"party {party!r} did not introduce itself within {budget:.1f}s"
                )
            time.sleep(_EXCHANGE_RETRY_SECONDS)

    # -- restart-time catch-up ------------------------------------------------------

    def resync_with_peers(self, parties: Optional[List[str]] = None) -> int:
        """Catch every local replica up from the remote members ahead of it.

        For each object a local organisation shares, asks each remote
        member among ``parties`` (default: every remote party this process
        has learned) for the versions it is missing, through
        :meth:`B2BObjectController.catch_up` -- a signed sharing-protocol
        request that peers answer for current members only, applied
        proof-checked and version-guarded.  The restart-time entry point: a
        recovering process registers its objects (resuming their durable
        versions), replays its run journal, then calls this.  Unreachable
        peers apply nothing.  Returns the number of versions applied.
        """
        with self._lock:
            orgs = list(self._local_orgs)
            remote = set(self._known_remote)
        if parties is not None:
            remote &= set(parties)
        applied = 0
        for org in orgs:
            controller = org.controller
            for object_id in controller.object_ids():
                for party in sorted(remote.intersection(controller.members(object_id))):
                    applied += controller.catch_up(object_id, party)
        return applied

    # -- teardown ------------------------------------------------------------------

    def serve_observability(self, port: int = 0):
        """Start (or return) the node's metrics/spans HTTP endpoint.

        Serves ``/metrics`` (Prometheus text), ``/metrics.json`` and
        ``/spans.json`` for the *process-wide* observability plane on
        ``127.0.0.1:port`` (``0`` picks a free port; read it back from
        ``observability_server.port``).  Stopped by :meth:`close`.
        """
        if self.observability_server is None:
            from repro.observability.exporters import ObservabilityHTTPServer

            self.observability_server = ObservabilityHTTPServer(port=port)
        return self.observability_server

    def close(self) -> None:
        """Stop the node (serve loop and client connections)."""
        server, self.observability_server = self.observability_server, None
        if server is not None:
            server.close()
        self.network.close()

    def __enter__(self) -> "WireTransport":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()
