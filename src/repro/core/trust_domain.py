"""Trust domains: direct, inline-TTP and distributed-inline-TTP deployments.

Section 3.1 (Figure 3) describes three ways of using trusted interceptors to
construct a trust domain between organisations:

* **direct** -- each organisation hosts its own interceptor and they exchange
  protocol messages directly (Figure 3(c));
* **inline TTP** -- a single TTP mediates all communication between the
  organisations (Figure 3(a));
* **distributed inline TTP** -- each organisation communicates through its own
  TTP, and the TTPs communicate with each other (Figure 3(b)).

:class:`TrustDomain` builds a fully wired deployment of either style on a
simulated network: it creates the certificate authority, the organisations,
any TTPs, exchanges keys and installs the routing appropriate to the style.
The same application code then runs unchanged on any deployment -- which is
the point of the trusted-interceptor abstraction -- and the benchmarks use
this to compare the message/latency cost of the three styles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.clock import Clock, SimulatedClock
from repro.core.config import (
    DeploymentStyle,
    DomainConfig,
    PeeringConfig,
)
from repro.core.invocation import NR_INVOCATION_PROTOCOL
from repro.core.organisation import Organisation
from repro.core.sharing import NR_SHARING_PROTOCOL
from repro.core.ttp import RelayProtocolHandler, TTPArbitrator, install_relays
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.timestamp import TimestampAuthority
from repro.errors import ProtocolError
from repro.faults import FaultPlan
from repro.faults.breaker import STATE_HALF_OPEN, STATE_OPEN
from repro.persistence.storage import StorageBackend
from repro.transport.network import DispatchStrategy, FaultModel, SimulatedNetwork
from repro.transport.scheduler import RetryScheduler

__all__ = ["DEFAULT_RELAYED_PROTOCOLS", "DeploymentStyle", "TrustDomain"]

#: Protocols relayed by inline TTPs by default.
DEFAULT_RELAYED_PROTOCOLS = [NR_INVOCATION_PROTOCOL, NR_SHARING_PROTOCOL]


@dataclass
class TrustDomain:
    """A wired deployment of organisations (and TTPs) forming a trust domain."""

    style: DeploymentStyle
    network: SimulatedNetwork
    certificate_authority: CertificateAuthority
    organisations: Dict[str, Organisation] = field(default_factory=dict)
    ttps: Dict[str, Organisation] = field(default_factory=dict)
    arbitrator: Optional[TTPArbitrator] = None
    relays: Dict[str, Dict[str, RelayProtocolHandler]] = field(default_factory=dict)
    timestamp_authority: Optional[TimestampAuthority] = None
    #: Parties of the domain hosted by *other processes* (wire deployments):
    #: they are routable and verifiable but have no local Organisation.
    remote_parties: List[str] = field(default_factory=list)
    #: The per-process wire bundle, when this domain spans processes.
    transport: Optional["WireTransport"] = None  # noqa: F821 - lazy import

    # -- construction ---------------------------------------------------------------

    @classmethod
    def create(
        cls,
        party_uris: List[str],
        style: DeploymentStyle = DeploymentStyle.DIRECT,
        network: Optional[SimulatedNetwork] = None,
        fault_model: Optional[FaultModel] = None,
        clock: Optional[Clock] = None,
        scheme: str = "rsa",
        use_timestamping: bool = False,
        relayed_protocols: Optional[List[str]] = None,
        with_arbitrator: bool = False,
        dispatch: Optional[DispatchStrategy] = None,
        evidence_backend_factory: Optional[Callable[[str], StorageBackend]] = None,
        transport: Optional["WireTransport"] = None,  # noqa: F821 - lazy import
        durable_runs: bool = False,
        run_journal_backend_factory: Optional[
            Callable[[str], StorageBackend]
        ] = None,
        orphan_run_timeout: Optional[float] = None,
        keypair_factory: Optional[Callable[[str], "KeyPair"]] = None,  # noqa: F821
        fault_plan: Optional[FaultPlan] = None,
        storage: Optional[str] = None,
        peering: Optional[PeeringConfig] = None,
        durable_state: bool = False,
        config: Optional[DomainConfig] = None,
    ) -> "TrustDomain":
        """Build a trust domain of the requested style for ``party_uris``.

        ``config`` (a :class:`repro.core.config.DomainConfig`) is the
        primary way to describe the deployment: the knobs below, grouped
        by concern, with every cross-field rule checked in
        :meth:`DomainConfig.validate`.  The individual keyword arguments
        remain supported for backward compatibility and delegate through
        the same config path unchanged (deprecation note: prefer
        ``config=`` in new code; the flat kwargs may gain a
        ``DeprecationWarning`` in a future release).  Passing ``config=``
        together with a non-default individual kwarg is an error.

        ``storage`` provisions persistence for *every* organisation from
        one profile string -- ``"memory"``, ``"file:<dir>"`` or
        ``"sqlite:<path>"`` -- covering evidence stores and audit logs
        always and run journals when ``durable_runs`` is set (the SQLite
        profile keeps all stores in one embedded-KV file that many
        processes can share).  ``peering`` (a
        :class:`~repro.core.config.PeeringConfig`) enables the lazy
        per-peer channel manager on a wire domain: no eager credential
        exchange at build time; channels are created on first touch and
        evicted LRU/idle under the configured cap.

        ``dispatch`` selects the network's handler-dispatch strategy (e.g.
        :class:`repro.transport.network.ParallelDispatch` to run batched
        protocol fan-outs concurrently); it is only consulted when the domain
        constructs its own network.  Either network comes with a
        :class:`repro.transport.scheduler.RetryScheduler` on its clock
        (:attr:`retry_scheduler`): delivery retries wait as timers, run
        deadlines, orphan expiry and outcome re-delivery are timers on the
        same heap, and every coordination round runs on the one engine of
        :mod:`repro.core.sharing` -- there is nothing to switch on.
        ``evidence_backend_factory`` maps
        a party URI to the storage backend its evidence store should persist
        into (e.g. a :class:`repro.persistence.storage.FileBackend`
        directory for multi-process deployments); the default keeps evidence
        in memory.  ``transport`` turns the domain into one *process* of a
        cross-process deployment (see
        :class:`repro.transport.wire.WireTransport`): organisations are
        built only for the transport's local parties, registered on its
        socket-backed :class:`~repro.transport.wire.WireNetwork`, and every
        other party of ``party_uris`` is resolved through the wire
        credential exchange instead of direct object access.

        ``durable_runs`` (optionally with a ``run_journal_backend_factory``
        mapping each party URI to a storage backend, e.g. a
        :class:`~repro.persistence.storage.FileBackend` directory) gives
        every organisation a write-ahead run journal;
        :meth:`recover_runs` replays open runs after a restart.
        ``orphan_run_timeout`` (seconds) arms the responder-side
        proposal-age expiry: a proposal whose outcome never arrives is
        garbage-collected instead of stranding run state forever.
        ``durable_state`` keeps each organisation's agreed history on the
        storage profile and resumes shared objects at their recorded
        version after a restart.  Recovery needs no switch: a proposer
        re-delivers an outcome wave a peer missed (a bounded number of
        times), wire peers catch up at every introduction, and a replica
        that learns it is behind catches itself up from a peer that is
        ahead.
        ``keypair_factory`` maps a party URI to the key pair it should use
        -- a restarted process must present the *same* key its peers pinned
        (wire key pinning is trust-on-first-use), so durable deployments
        persist keys and rebuild organisations through this hook.
        ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects seeded
        deterministic faults into message admission on *either* transport:
        simulated domains build their network with it, wire domains install
        it on the transport's :class:`~repro.transport.wire.WireNetwork`
        (``fault_model`` is likewise accepted on wire domains, converted via
        :meth:`FaultPlan.from_fault_model`).  Pass at most one of the two.
        """
        if config is None:
            config = DomainConfig.from_legacy_kwargs(
                style=style,
                network=network,
                fault_model=fault_model,
                clock=clock,
                scheme=scheme,
                use_timestamping=use_timestamping,
                relayed_protocols=relayed_protocols,
                with_arbitrator=with_arbitrator,
                dispatch=dispatch,
                evidence_backend_factory=evidence_backend_factory,
                transport=transport,
                durable_runs=durable_runs,
                run_journal_backend_factory=run_journal_backend_factory,
                orphan_run_timeout=orphan_run_timeout,
                keypair_factory=keypair_factory,
                fault_plan=fault_plan,
                storage=storage,
                peering=peering,
                durable_state=durable_state,
            )
        else:
            # A config fully describes the deployment; a non-default flat
            # kwarg next to it would be silently ignored -- reject instead.
            overridden = sorted(
                name
                for name, (value, default) in {
                    "style": (style, DeploymentStyle.DIRECT),
                    "network": (network, None),
                    "fault_model": (fault_model, None),
                    "clock": (clock, None),
                    "scheme": (scheme, "rsa"),
                    "use_timestamping": (use_timestamping, False),
                    "relayed_protocols": (relayed_protocols, None),
                    "with_arbitrator": (with_arbitrator, False),
                    "dispatch": (dispatch, None),
                    "evidence_backend_factory": (evidence_backend_factory, None),
                    "transport": (transport, None),
                    "durable_runs": (durable_runs, False),
                    "run_journal_backend_factory": (
                        run_journal_backend_factory,
                        None,
                    ),
                    "orphan_run_timeout": (orphan_run_timeout, None),
                    "keypair_factory": (keypair_factory, None),
                    "fault_plan": (fault_plan, None),
                    "storage": (storage, None),
                    "peering": (peering, None),
                    "durable_state": (durable_state, False),
                }.items()
                if value != default
            )
            if overridden:
                raise ProtocolError(
                    "pass config= or individual keyword arguments, not both "
                    f"(also given: {', '.join(overridden)})"
                )
        return cls._build(party_uris, config)

    @classmethod
    def _build(cls, party_uris: List[str], config: DomainConfig) -> "TrustDomain":
        """One implementation path behind both ``create`` surfaces."""
        if len(party_uris) < 2:
            raise ProtocolError("a trust domain needs at least two organisations")
        if len(set(party_uris)) != len(party_uris):
            raise ProtocolError("party URIs must be unique")
        config.validate()
        if config.transport.wire is not None:
            return cls._create_wired(party_uris, config)
        style = config.style
        scheme = config.scheme
        keypair_factory = config.keypair_factory
        evidence_factory, journal_factory, audit_factory, state_factory = (
            config.durability.resolve_factories()
        )
        clock = config.transport.clock or SimulatedClock()
        network = config.transport.network or SimulatedNetwork(
            fault_model=config.faults.model,
            clock=clock,
            dispatch=config.transport.dispatch,
            fault_plan=config.faults.plan,
        )
        ca = CertificateAuthority("urn:repro:ca", scheme=scheme, clock=clock)
        tsa = (
            TimestampAuthority("urn:repro:tsa", scheme=scheme, clock=clock)
            if config.use_timestamping
            else None
        )
        domain = cls(
            style=style,
            network=network,
            certificate_authority=ca,
            timestamp_authority=tsa,
        )
        for uri in party_uris:
            domain.organisations[uri] = Organisation(
                uri=uri,
                network=network,
                ca=ca,
                keypair=keypair_factory(uri) if keypair_factory else None,
                scheme=scheme,
                clock=clock,
                timestamp_authority=tsa,
                evidence_backend=(
                    evidence_factory(uri) if evidence_factory else None
                ),
                durable_runs=config.durability.durable_runs,
                run_journal_backend=(
                    journal_factory(uri) if journal_factory else None
                ),
                orphan_run_timeout=config.durability.orphan_run_timeout,
                audit_backend=audit_factory(uri) if audit_factory else None,
                state_backend=state_factory(uri) if state_factory else None,
                durable_state=config.durability.durable_state,
            )
        # Everybody learns everybody's keys (credential exchange).
        organisations = list(domain.organisations.values())
        for org in organisations:
            for other in organisations:
                if org is not other:
                    org.trust(other)

        relayed = config.relayed_protocols or list(DEFAULT_RELAYED_PROTOCOLS)
        if style is DeploymentStyle.INLINE_TTP:
            domain._wire_inline_ttp(ca, clock, scheme, tsa, relayed)
        elif style is DeploymentStyle.DISTRIBUTED_TTP:
            domain._wire_distributed_ttp(ca, clock, scheme, tsa, relayed)

        if config.with_arbitrator:
            domain._install_arbitrator(ca, clock, scheme, tsa)
        domain._install_observability(config)
        return domain

    @classmethod
    def _create_wired(
        cls, party_uris: List[str], config: DomainConfig
    ) -> "TrustDomain":
        """Build one process's share of a socket-connected trust domain.

        Organisations are created for the transport's local parties only
        and registered on its :class:`~repro.transport.wire.WireNetwork`;
        remote parties are learned through the wire credential exchange
        (pinned keys plus routed coordinator addresses).  The wire carries
        no relayed styles: every party talks to every other directly.  A
        ``fault_plan`` (or a ``fault_model``, converted to a plan) installs
        seeded fault injection on the wire network, where injected resets
        and corrupt frames kill *real* sockets and recover through the real
        retry machinery.

        With ``peering`` configured (or peering already enabled on the
        transport), the eager credential exchange with every remote party
        is skipped: each local coordinator gets a route resolver backed by
        :meth:`WireTransport.ensure_party`, so credentials and routes are
        fetched on the first message to a peer and the per-peer transport
        state lives in the transport's bounded channel manager.
        """
        transport = config.transport.wire
        scheme = config.scheme
        keypair_factory = config.keypair_factory
        evidence_factory, journal_factory, audit_factory, state_factory = (
            config.durability.resolve_factories()
        )
        local = list(transport.local_parties)
        unknown = sorted(set(local) - set(party_uris))
        if unknown:
            raise ProtocolError(
                f"transport hosts parties outside the domain: {unknown}"
            )
        wire_network = transport.network
        # Route either fault surface to the wire-side injector: a legacy
        # FaultModel becomes an equivalent plan, a FaultPlan installs as-is.
        plan = (
            FaultPlan.from_fault_model(config.faults.model)
            if config.faults.model is not None
            else config.faults.plan
        )
        if plan is not None:
            wire_network.set_fault_plan(plan)
        clock = wire_network.clock
        if config.transport.dispatch is not None:
            wire_network.set_dispatch(config.transport.dispatch)
        if config.peering is not None and transport.peer_manager is None:
            transport.enable_peering(config.peering.to_policy())
        ca = CertificateAuthority("urn:repro:ca", scheme=scheme, clock=clock)
        domain = cls(
            style=config.style,
            network=wire_network,
            certificate_authority=ca,
            remote_parties=sorted(set(party_uris) - set(local)),
            transport=transport,
        )
        for uri in local:
            domain.organisations[uri] = Organisation(
                uri=uri,
                network=wire_network,
                ca=ca,
                keypair=keypair_factory(uri) if keypair_factory else None,
                scheme=scheme,
                clock=clock,
                evidence_backend=(
                    evidence_factory(uri) if evidence_factory else None
                ),
                durable_runs=config.durability.durable_runs,
                run_journal_backend=(
                    journal_factory(uri) if journal_factory else None
                ),
                orphan_run_timeout=config.durability.orphan_run_timeout,
                audit_backend=audit_factory(uri) if audit_factory else None,
                state_backend=state_factory(uri) if state_factory else None,
                durable_state=config.durability.durable_state,
            )
        # Local parties exchange credentials directly; publishing them on
        # the transport makes them introducible to (and by) peer processes.
        organisations = list(domain.organisations.values())
        for org in organisations:
            for other in organisations:
                if org is not other:
                    org.trust(other)
        for org in organisations:
            transport.publish(org)
        if transport.peer_manager is not None:
            # Lazy peering: skip the eager exchange.  First contact with a
            # peer resolves credentials and a route through the channel
            # manager instead (ensure_party), bounded by the peering cap.
            # Channel evictions must leave an audit trail; anchor it in the
            # process's first organisation unless one is already attached.
            if wire_network.audit_log is None:
                wire_network.attach_audit_log(organisations[0].audit_log)
            for org in organisations:
                org.coordinator.set_route_resolver(transport.ensure_party)
        elif transport.await_remote_credentials and domain.remote_parties:
            transport.exchange(domain.remote_parties)
        domain._install_observability(config)
        return domain

    def _install_observability(self, config: DomainConfig) -> None:
        """Turn on the process-wide observability plane for this domain.

        Idempotent across domains sharing a process: ``enable`` reuses the
        live span collector and metrics registry, and collector names are
        qualified per network/organisation so re-registration (a rebuilt
        domain) overwrites rather than duplicates.  All metric sources are
        *pull* collectors -- they cost nothing until a snapshot is taken.
        """
        settings = config.observability
        if settings is None:
            return
        from repro import parallel
        from repro.crypto import dsa
        from repro.observability import runtime as observability_runtime

        observability_runtime.enable(settings)
        self.network.set_trace_capacity(settings.message_trace_cap)
        registry = observability_runtime.STATE.metrics
        if registry is None:
            return
        network = self.network
        transport = self.transport

        def network_metrics() -> Dict[str, float]:
            stats = network.statistics
            metrics = {
                "network.messages_sent": stats.messages_sent,
                "network.messages_delivered": stats.messages_delivered,
                "network.messages_dropped": stats.messages_dropped,
                "network.messages_duplicated": stats.messages_duplicated,
                "network.messages_shed": stats.messages_shed,
                "network.bytes_delivered": stats.bytes_delivered,
                "network.circuit_open_refusals": stats.circuit_open_refusals,
                "executor.queue_depth": parallel.executor_queue_depth(),
                "scheduler.pending_timers": (
                    network.retry_scheduler.pending_timers()
                ),
            }
            breaker = network.circuit_breaker
            if breaker is not None:
                states = list(breaker.states().values())
                metrics["breaker.circuits_open"] = states.count(STATE_OPEN)
                metrics["breaker.circuits_half_open"] = states.count(
                    STATE_HALF_OPEN
                )
            pools = dsa.nonce_pool_stats().values()
            metrics["crypto.nonce_pool_size"] = sum(p["size"] for p in pools)
            metrics["crypto.nonce_pool_hits"] = sum(p["hits"] for p in pools)
            metrics["crypto.nonce_pool_misses"] = sum(
                p["misses"] for p in pools
            )
            if transport is not None and transport.peer_manager is not None:
                manager = transport.peer_manager
                metrics["peering.live_channels"] = manager.live_channels
                metrics["peering.channels_created"] = manager.stats.created
                metrics["peering.channels_evicted"] = manager.stats.evicted
            return metrics

        registry.register_collector(
            f"network:{id(network):x}", network_metrics
        )

        def org_metrics(org: Organisation, uri: str) -> Dict[str, float]:
            metrics = {
                f"evidence.records.{uri}": org.evidence_store.total_records(),
                f"audit.records.{uri}": len(org.audit_log),
            }
            journal = org.coordinator.services.run_journal
            if journal is not None:
                metrics[f"journal.open_runs.{uri}"] = len(journal.open_runs())
            return metrics

        for uri, org in self.organisations.items():
            registry.register_collector(
                f"org:{uri}",
                lambda org=org, uri=uri: org_metrics(org, uri),
            )
        if settings.http_port is not None and transport is not None:
            transport.serve_observability(settings.http_port)

    def _new_ttp(
        self,
        uri: str,
        ca: CertificateAuthority,
        clock: Clock,
        scheme: str,
        tsa: Optional[TimestampAuthority],
    ) -> Organisation:
        ttp = Organisation(
            uri=uri,
            network=self.network,
            ca=ca,
            scheme=scheme,
            clock=clock,
            timestamp_authority=tsa,
        )
        self.ttps[uri] = ttp
        # The TTP must be able to verify every party's evidence and reach
        # every party's coordinator; every party must trust the TTP's key.
        for org in self.organisations.values():
            ttp.trust(org)
            org.evidence_verifier.pin_key(ttp.uri, ttp.public_key)
            ttp.evidence_verifier.pin_key(org.uri, org.public_key)
        return ttp

    def _wire_inline_ttp(
        self,
        ca: CertificateAuthority,
        clock: Clock,
        scheme: str,
        tsa: Optional[TimestampAuthority],
        relayed_protocols: List[str],
    ) -> None:
        """Single TTP acting on behalf of all organisations (Figure 3(a))."""
        ttp = self._new_ttp("urn:ttp:inline", ca, clock, scheme, tsa)
        self.relays[ttp.uri] = install_relays(ttp.coordinator, relayed_protocols)
        for org in self.organisations.values():
            for other_uri in self.organisations:
                if other_uri != org.uri:
                    org.route_via(other_uri, ttp.coordinator.address)

    def _wire_distributed_ttp(
        self,
        ca: CertificateAuthority,
        clock: Clock,
        scheme: str,
        tsa: Optional[TimestampAuthority],
        relayed_protocols: List[str],
    ) -> None:
        """One TTP per organisation, TTPs talk to each other (Figure 3(b))."""
        org_to_ttp: Dict[str, Organisation] = {}
        for uri in self.organisations:
            ttp = self._new_ttp(f"urn:ttp:for:{uri.split(':')[-1]}", ca, clock, scheme, tsa)
            self.relays[ttp.uri] = install_relays(ttp.coordinator, relayed_protocols)
            org_to_ttp[uri] = ttp
        for uri, org in self.organisations.items():
            own_ttp = org_to_ttp[uri]
            for other_uri in self.organisations:
                if other_uri == uri:
                    continue
                # The organisation sends everything to its own TTP; its TTP
                # forwards to the destination organisation's TTP, which
                # finally delivers to the destination organisation.
                org.route_via(other_uri, own_ttp.coordinator.address)
                own_ttp.route_via(
                    other_uri, org_to_ttp[other_uri].coordinator.address
                )
                org_to_ttp[other_uri].route_via(
                    other_uri, self.organisations[other_uri].coordinator.address
                )

    def _install_arbitrator(
        self,
        ca: CertificateAuthority,
        clock: Clock,
        scheme: str,
        tsa: Optional[TimestampAuthority],
    ) -> None:
        """Add an offline TTP arbitrator for optimistic fair exchange."""
        uri = "urn:ttp:arbitrator"
        if uri in self.ttps:
            arbitrator_host = self.ttps[uri]
        else:
            arbitrator_host = self._new_ttp(uri, ca, clock, scheme, tsa)
        self.arbitrator = TTPArbitrator(
            party=arbitrator_host.uri, coordinator=arbitrator_host.coordinator
        )
        arbitrator_host.coordinator.register_handler(self.arbitrator, replace=True)
        for org in self.organisations.values():
            org.trust_key(
                arbitrator_host.uri,
                arbitrator_host.public_key,
                arbitrator_host.coordinator.address,
            )

    # -- access ------------------------------------------------------------------------

    @property
    def arbitrator_uri(self) -> Optional[str]:
        return self.arbitrator.party if self.arbitrator else None

    @property
    def retry_scheduler(self) -> RetryScheduler:
        """The network's timer heap: delivery retries and protocol deadlines."""
        return self.network.retry_scheduler

    def organisation(self, uri: str) -> Organisation:
        try:
            return self.organisations[uri]
        except KeyError:
            raise ProtocolError(f"no organisation {uri!r} in this trust domain") from None

    def party_uris(self) -> List[str]:
        """Every party of the domain, including remotely hosted ones."""
        return sorted(set(self.organisations) | set(self.remote_parties))

    def share_object(
        self, object_id: str, initial_state, member_uris: Optional[List[str]] = None
    ) -> None:
        """Register a shared object on every *locally hosted* member's controller.

        Remote members of a wire domain register the object in their own
        process (their ``TrustDomain.create`` + ``share_object`` call); the
        full member list still includes them, so coordination fans out to
        them over the wire.
        """
        members = member_uris or self.party_uris()
        for uri in members:
            if uri in self.organisations:
                self.organisation(uri).share_object(object_id, initial_state, members)
            elif uri not in self.remote_parties:
                raise ProtocolError(f"no organisation {uri!r} in this trust domain")

    def recover_runs(self) -> Dict[str, Dict[str, str]]:
        """Replay every local organisation's run journal after a restart.

        Returns ``party uri -> {run_id: action}`` for the runs recovered
        (``"resumed"`` past the commit barrier, ``"aborted"`` before it).
        Deterministic -- organisations in sorted order, runs in run-id order
        -- and idempotent: recovered runs are settled in their journals.
        """
        return {
            uri: self.organisations[uri].recover_runs()
            for uri in sorted(self.organisations)
        }

    def total_relayed_messages(self) -> int:
        """Number of protocol messages that passed through TTP relays."""
        return sum(
            relay.relayed_messages
            for per_ttp in self.relays.values()
            for relay in per_ttp.values()
        )
