"""Per-organisation facade.

An :class:`Organisation` bundles everything one party of a composite service
needs: its identity (key pair and certificate), its service-delivery platform
(the component container), its trusted interceptor (NR interceptors,
invocation handler, protocol handlers and B2BCoordinator) and the supporting
infrastructure (evidence store, state store, audit log, membership, access
control).

It is the object application code interacts with in the examples and tests:

>>> org_a = Organisation("urn:org:a", network=network, ca=ca)      # doctest: +SKIP
>>> org_b = Organisation("urn:org:b", network=network, ca=ca)      # doctest: +SKIP
>>> org_a.trust(org_b); org_b.trust(org_a)                          # doctest: +SKIP
>>> proxy = org_a.nr_proxy(org_b, "QuoteService")                   # doctest: +SKIP
>>> proxy.request_quote("chassis")                                  # doctest: +SKIP
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.access.policy import AccessPolicy
from repro.access.roles import RoleManager
from repro.clock import Clock, SystemClock
from repro.container.component import Component, ComponentDescriptor
from repro.container.container import Container
from repro.container.interceptor import Interceptor, Invocation
from repro.container.proxy import ClientProxy
from repro.core.coordinator import B2BCoordinator, LocalServices
from repro.core.evidence import EvidenceBuilder, EvidenceVerifier
from repro.core.invocation import (
    B2BInvocation,
    B2BInvocationHandler,
    InvocationOutcome,
    ServerInvocationHandler,
)
from repro.core.nr_interceptors import ClientNRInterceptor, nr_interceptor_provider
from repro.core.sharing import (
    B2BObjectController,
    RunFuture,
    SharingOutcome,
    b2b_object_interceptor_provider,
)
from repro.core.validators import StateValidator
from repro.crypto.certificates import Certificate, CertificateAuthority, CertificateStore
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.signature import Signer, get_scheme
from repro.crypto.timestamp import TimestampAuthority
from repro.errors import ProtocolError
from repro.membership.service import MembershipService
from repro.persistence.audit_log import AuditLog
from repro.persistence.evidence_store import EvidenceStore
from repro.persistence.run_journal import RunJournal
from repro.persistence.state_store import StateStore
from repro.persistence.storage import StorageBackend
from repro.transport.delivery import RetryPolicy
from repro.transport.network import SimulatedNetwork


def _unreachable_dispatcher(invocation: Invocation):
    """Final handler for NR client proxies; the NR interceptor never reaches it."""
    raise ProtocolError(
        f"invocation of {invocation.component}.{invocation.method} reached the "
        "transport step of an NR proxy; the NR interceptor should have taken over"
    )


class Organisation:
    """One organisation participating in a composite service."""

    def __init__(
        self,
        uri: str,
        network: SimulatedNetwork,
        ca: Optional[CertificateAuthority] = None,
        keypair: Optional[KeyPair] = None,
        scheme: str = "rsa",
        clock: Optional[Clock] = None,
        timestamp_authority: Optional[TimestampAuthority] = None,
        retry_policy: Optional[RetryPolicy] = None,
        display_name: str = "",
        evidence_backend: Optional[StorageBackend] = None,
        durable_runs: bool = False,
        run_journal_backend: Optional[StorageBackend] = None,
        orphan_run_timeout: Optional[float] = None,
        audit_backend: Optional[StorageBackend] = None,
        state_backend: Optional[StorageBackend] = None,
        durable_state: bool = False,
    ) -> None:
        self.uri = uri
        self.display_name = display_name or uri
        self.network = network
        self.clock = clock or SystemClock()

        # -- identity ------------------------------------------------------------
        self.keypair = keypair or get_scheme(scheme).generate_keypair()
        self.certificate: Optional[Certificate] = None
        self.certificate_store = CertificateStore(clock=self.clock)
        if ca is not None:
            self.certificate = ca.issue_certificate(uri, self.keypair.public)
            self.certificate_store.add_trusted_root(ca.root_certificate)
            self.certificate_store.add_certificate(self.certificate)

        # -- persistence / infrastructure -----------------------------------------
        # ``audit_backend`` persists the hash-chained audit trail alongside
        # evidence and run state (the ``storage=`` profile provisions all
        # three consistently); the default stays in memory.
        self.audit_log = AuditLog(owner=uri, backend=audit_backend, clock=self.clock)
        # ``evidence_backend`` lets a deployment persist evidence outside the
        # process (file-backed store shared across interceptor processes);
        # the default stays in memory for tests and simulation.
        self.evidence_store = EvidenceStore(
            owner=uri, backend=evidence_backend, clock=self.clock
        )
        # ``state_backend`` + ``durable_state`` make the agreed version
        # history of every shared object survive a restart: registration
        # resumes each replica at its recorded ``(version, digest)`` instead
        # of re-recording version 0 from configuration.
        self.state_store = StateStore(owner=uri, backend=state_backend)
        # ``durable_runs`` (or an explicit backend) turns on the write-ahead
        # run journal: every coordination run this organisation proposes is
        # journaled before its side effects dispatch, and
        # :meth:`recover_runs` replays open runs after a restart.  Pair it
        # with a file-backed ``run_journal_backend`` for real crash recovery.
        self.run_journal: Optional[RunJournal] = None
        if durable_runs or run_journal_backend is not None:
            self.run_journal = RunJournal(owner=uri, backend=run_journal_backend)
        self.membership = MembershipService(clock=self.clock)
        self.role_manager = RoleManager(clock=self.clock)
        self.access_policy = AccessPolicy(owner=uri)

        # -- evidence generation / verification --------------------------------------
        self.evidence_builder = EvidenceBuilder(
            party=uri,
            signer=Signer(self.keypair.private),
            clock=self.clock,
            timestamp_authority=timestamp_authority,
        )
        self.evidence_verifier = EvidenceVerifier(
            certificate_store=self.certificate_store,
            tsa_key=timestamp_authority.public_key if timestamp_authority else None,
        )
        self.evidence_verifier.pin_key(uri, self.keypair.public)

        # -- container (the service delivery platform) ----------------------------------
        self.container = Container(name=uri, network=network, address=uri)

        # -- coordinator and protocol handlers (the trusted interceptor) ------------------
        services = LocalServices(
            evidence_builder=self.evidence_builder,
            evidence_verifier=self.evidence_verifier,
            evidence_store=self.evidence_store,
            state_store=self.state_store,
            audit_log=self.audit_log,
            clock=self.clock,
            run_journal=self.run_journal,
        )
        self.coordinator = B2BCoordinator(
            party=uri,
            invoker=self.container.invoker,
            services=services,
            retry_policy=retry_policy,
        )
        self.server_invocation_handler = ServerInvocationHandler(
            party=uri,
            coordinator=self.coordinator,
            dispatcher=self.container.dispatch,
        )
        self.coordinator.register_handler(self.server_invocation_handler)
        self.controller = B2BObjectController(
            party=uri,
            coordinator=self.coordinator,
            membership=self.membership,
            orphan_run_timeout=orphan_run_timeout,
            durable_state=durable_state,
        )

        # -- container integration of the NR middleware ------------------------------------
        self.container.add_interceptor_provider(
            nr_interceptor_provider(uri, audit_log=self.audit_log)
        )
        self.container.add_interceptor_provider(
            b2b_object_interceptor_provider(self.controller)
        )

    # ------------------------------------------------------------------ identity

    @property
    def public_key(self) -> PublicKey:
        return self.keypair.public

    def trust(self, other: "Organisation") -> None:
        """Record the other organisation's key/certificate and a direct route.

        Models the out-of-band exchange of credentials that precedes regulated
        interaction; for TTP-routed deployments call :meth:`route_via`
        afterwards to override the direct route.
        """
        self.evidence_verifier.pin_key(other.uri, other.public_key)
        if other.certificate is not None:
            self.certificate_store.add_certificate(other.certificate)
        self.coordinator.add_route(other.uri, other.coordinator.address)

    def trust_key(self, party: str, public_key: PublicKey, coordinator_address: str) -> None:
        """Trust a party known only by key and address (e.g. a TTP)."""
        self.evidence_verifier.pin_key(party, public_key)
        self.coordinator.add_route(party, coordinator_address)

    def route_via(self, party: str, coordinator_address: str) -> None:
        """Route protocol messages for ``party`` through ``coordinator_address``."""
        self.coordinator.add_route(party, coordinator_address)

    # ------------------------------------------------------------------ deployment

    def deploy(self, instance: Any, descriptor: ComponentDescriptor) -> Component:
        """Deploy a component into this organisation's container."""
        component = self.container.deploy(instance, descriptor)
        if descriptor.b2b_object:
            object_id = descriptor.metadata.get("b2b_object_id", descriptor.name)
            if self.controller.is_shared(object_id):
                self.controller.bind_component(object_id, instance)
        return component

    def deploy_service(
        self, instance: Any, name: str, non_repudiation: bool = True, **descriptor_kwargs: Any
    ) -> Component:
        """Convenience wrapper building the descriptor for a session service."""
        descriptor = ComponentDescriptor(
            name=name, non_repudiation=non_repudiation, **descriptor_kwargs
        )
        return self.deploy(instance, descriptor)

    # ------------------------------------------------------------------ invocation

    def nr_proxy(
        self,
        provider: "Organisation",
        component_name: str,
        protocol: str = "direct",
        platform: str = "python",
        client_interceptors: Optional[List[Interceptor]] = None,
        consume_response: bool = True,
    ) -> ClientProxy:
        """Create a non-repudiable proxy for a component hosted by ``provider``.

        The proxy's client-side chain starts with the client NR interceptor
        (first on the outgoing path, Section 4.2), which runs the
        non-repudiation protocol instead of a plain remote call.
        """
        proxy = ClientProxy(
            component_name=component_name,
            dispatcher=_unreachable_dispatcher,
            client_interceptors=list(client_interceptors or []),
            caller=self.uri,
        )
        proxy.add_interceptor_first(
            ClientNRInterceptor(
                party=self.uri,
                coordinator=self.coordinator,
                target_party=provider.uri,
                platform=platform,
                protocol=protocol,
                consume_response=consume_response,
            )
        )
        return proxy

    def plain_proxy(
        self,
        provider: "Organisation",
        component_name: str,
        client_interceptors: Optional[List[Interceptor]] = None,
    ) -> ClientProxy:
        """Create an ordinary (non-NR) remote proxy -- the Figure 4(a) baseline."""
        return provider.container.create_remote_proxy(
            client_invoker=self.container.invoker,
            component_name=component_name,
            client_interceptors=client_interceptors,
            caller=self.uri,
        )

    def invoke_non_repudiably(
        self,
        provider_uri: str,
        component: str,
        method: str,
        args: Optional[List[Any]] = None,
        kwargs: Optional[Dict[str, Any]] = None,
        protocol: str = "direct",
        platform: str = "python",
        consume_response: bool = True,
    ) -> InvocationOutcome:
        """Invoke a remote operation through the NR protocol, returning evidence."""
        handler = B2BInvocationHandler.get_instance(
            platform, protocol, self.uri, self.coordinator
        )
        invocation = Invocation(
            component=component,
            method=method,
            args=list(args or []),
            kwargs=dict(kwargs or {}),
            caller=self.uri,
        )
        return handler.invoke_with_evidence(
            B2BInvocation(
                target_party=provider_uri,
                invocation=invocation,
                platform=platform,
                protocol=protocol,
                consume_response=consume_response,
            )
        )

    # ------------------------------------------------------------------ sharing

    def share_object(
        self,
        object_id: str,
        initial_state: Any,
        members: List[str],
        validators: Optional[List[StateValidator]] = None,
    ) -> None:
        """Register a shared B2BObject on this organisation's controller."""
        self.controller.register_object(object_id, initial_state, members, validators)

    def propose_update(self, object_id: str, new_state: Any) -> SharingOutcome:
        """Propose an update to a shared object (NR-Sharing, Section 3.3)."""
        return self.controller.propose_update(object_id, new_state)

    def propose_update_async(
        self, object_id: str, new_state: Any, deadline: Optional[float] = None
    ) -> RunFuture:
        """Start a non-blocking coordination run; returns its :class:`RunFuture`."""
        return self.controller.propose_update_async(object_id, new_state, deadline)

    def recover_runs(self) -> Dict[str, str]:
        """Replay the run journal after a restart; returns ``run_id -> action``.

        Resumes runs journaled past the commit barrier, aborts (and notifies
        the wave of) runs that never reached it.  A no-op without
        ``durable_runs`` and idempotent with it -- see
        :meth:`repro.core.sharing.B2BObjectController.recover_runs`.
        """
        return self.controller.recover_runs()

    def shared_state(self, object_id: str) -> Any:
        return self.controller.get_state(object_id)

    def shared_version(self, object_id: str) -> int:
        return self.controller.get_version(object_id)

    # ------------------------------------------------------------------ introspection

    def evidence_for_run(self, run_id: str):
        """All evidence this organisation holds for a protocol run."""
        return self.evidence_store.evidence_for_run(run_id)

    def audit_records(
        self,
        category: Optional[str] = None,
        subject: Optional[str] = None,
        trace_id: Optional[str] = None,
    ):
        return self.audit_log.records(
            category=category, subject=subject, trace_id=trace_id
        )

    def __repr__(self) -> str:
        return f"Organisation({self.uri!r})"
