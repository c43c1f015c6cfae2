"""Consolidated deployment configuration for :meth:`TrustDomain.create`.

Seven releases of opt-in capabilities left ``TrustDomain.create`` with
20+ keyword arguments and the rules about which combinations are valid
scattered through its body.  :class:`DomainConfig` is the redesigned
surface: one dataclass grouping the knobs by concern --

* :class:`TransportConfig` -- what carries messages (a wire transport
  bundle for cross-process domains, or a simulated network / clock /
  dispatch strategy);
* :class:`DurabilityConfig` -- evidence/journal/audit persistence, either
  as one ``storage=`` profile (``"memory"``, ``"file:<dir>"``,
  ``"sqlite:<path>"``) or as explicit per-store backend factories;
* :class:`FaultConfig` -- the seeded fault plan (or legacy fault model);
* :class:`PeeringConfig` -- the lazy per-peer channel manager's bounds.

Every cross-field validity rule lives in :meth:`DomainConfig.validate`,
so invalid combinations fail the same way whether the config was built
directly or from legacy keyword arguments
(:meth:`DomainConfig.from_legacy_kwargs` -- the kwarg path on
``TrustDomain.create`` delegates here unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, List, Optional, Tuple

from repro.clock import Clock
from repro.errors import ProtocolError
from repro.faults import FaultPlan
from repro.peering import PeeringPolicy
from repro.persistence.storage import StorageBackend, StorageProfile
from repro.transport.network import DispatchStrategy, FaultModel, SimulatedNetwork

__all__ = [
    "DeploymentStyle",
    "DomainConfig",
    "DurabilityConfig",
    "FaultConfig",
    "ObservabilityConfig",
    "PeeringConfig",
    "TransportConfig",
]

BackendFactory = Callable[[str], StorageBackend]


class DeploymentStyle(Enum):
    """The three deployment styles of Figure 3."""

    DIRECT = "direct"
    INLINE_TTP = "inline-ttp"
    DISTRIBUTED_TTP = "distributed-ttp"


@dataclass
class TransportConfig:
    """What carries the domain's messages.

    ``wire`` makes the domain one *process* of a cross-process deployment
    (a :class:`~repro.transport.wire.WireTransport` bundle); otherwise the
    domain runs on ``network`` (or builds its own simulated network with
    ``clock``/``dispatch``).  ``clock`` and ``dispatch`` also apply to a
    provided network; on a wire domain the transport owns the clock.
    """

    wire: Optional[Any] = None  # WireTransport (untyped: layering)
    network: Optional[SimulatedNetwork] = None
    clock: Optional[Clock] = None
    dispatch: Optional[DispatchStrategy] = None


@dataclass
class DurabilityConfig:
    """Persistence of evidence, run journals and audit logs.

    ``storage`` is the one-stop profile selector (``"memory"``,
    ``"file:<dir>"``, ``"sqlite:<path>"``) provisioning every
    per-organisation backend consistently; the explicit ``*_factory``
    hooks remain for deployments that need per-store control, but the two
    styles are mutually exclusive.  ``durable_runs`` turns on the
    write-ahead run journal (under a profile, the journal rides the same
    storage); ``orphan_run_timeout`` arms responder-side proposal-age GC.
    Its default, ``None``, arms no timer: an object reservation older than
    ``repro.core.sharing.DEFAULT_ORPHAN_RUN_TIMEOUT`` is then released by
    the next competing proposal, and a number sets that age as well.

    ``durable_state`` puts each replica's agreed history (snapshots,
    per-version digests and compact outcome records) on the storage
    profile's backend and makes a restarted process resume shared objects
    at their recorded version instead of re-registering from
    configuration.  Recovery itself is not configured: every agreed
    version keeps its outcome record, a proposer re-delivers an
    undelivered outcome wave, wire peers catch up at every introduction,
    and a stale replica catches itself up from a peer that is ahead.
    """

    durable_runs: bool = False
    storage: Optional[str] = None
    evidence_backend_factory: Optional[BackendFactory] = None
    run_journal_backend_factory: Optional[BackendFactory] = None
    orphan_run_timeout: Optional[float] = None
    durable_state: bool = False
    state_backend_factory: Optional[BackendFactory] = None

    def resolve_factories(
        self,
    ) -> Tuple[
        Optional[BackendFactory],
        Optional[BackendFactory],
        Optional[BackendFactory],
        Optional[BackendFactory],
    ]:
        """Return ``(evidence, run_journal, audit, state)`` backend factories.

        A ``storage`` profile provisions evidence and audit backends for
        every organisation, run-journal backends when ``durable_runs`` is
        on, and state backends when ``durable_state`` is on; without a
        profile the explicit factories pass through (no audit backend --
        the in-memory default applies, as before).
        """
        if self.storage is None:
            return (
                self.evidence_backend_factory,
                self.run_journal_backend_factory,
                None,
                self.state_backend_factory,
            )
        profile = StorageProfile.parse(self.storage)
        journal_factory = (
            (lambda owner: profile.backend_for(owner, "runjournal"))
            if self.durable_runs
            else None
        )
        state_factory = (
            (lambda owner: profile.backend_for(owner, "state"))
            if self.durable_state
            else None
        )
        return (
            lambda owner: profile.backend_for(owner, "evidence"),
            journal_factory,
            lambda owner: profile.backend_for(owner, "audit"),
            state_factory,
        )


@dataclass
class FaultConfig:
    """Seeded fault injection: a declarative plan, or the legacy model."""

    plan: Optional[FaultPlan] = None
    model: Optional[FaultModel] = None


@dataclass
class PeeringConfig:
    """Bounds for the lazy per-peer channel manager (wire domains only).

    Enables :meth:`WireTransport.enable_peering` on the domain's
    transport: peer channels (credentials, routes, pooled sockets,
    breaker entries) are created on first use and evicted
    least-recently-used over ``max_live_channels`` (plus after
    ``idle_timeout_seconds`` of inactivity), instead of the domain
    eagerly exchanging credentials with its whole peer set.
    """

    max_live_channels: int = 128
    idle_timeout_seconds: Optional[float] = None

    def to_policy(self) -> PeeringPolicy:
        return PeeringPolicy(
            max_live_channels=self.max_live_channels,
            idle_timeout_seconds=self.idle_timeout_seconds,
        )


@dataclass
class ObservabilityConfig:
    """The process-global observability plane (tracing/metrics/exporters).

    Attaching one to a :class:`DomainConfig` turns observability on for
    the *process* when the domain is built (the plane is process-global
    and idempotent across domains).  ``tracing`` collects run-scoped
    spans into a bounded buffer of ``span_capacity``; ``metrics``
    creates the process :class:`~repro.observability.MetricsRegistry`
    and registers the domain's pull collectors (network statistics,
    scheduler quiescence, breaker states, peering occupancy, store
    sizes, nonce pools, executor depth); ``http_port`` (wire domains
    only; 0 binds an ephemeral port) serves ``/metrics`` (Prometheus
    text), ``/metrics.json`` and ``/spans.json`` from the transport.
    ``message_trace_cap`` bounds the debug message recorder on the
    domain's network.  Without an ``ObservabilityConfig`` nothing is
    enabled and every instrumented call site reduces to one attribute
    load.
    """

    tracing: bool = True
    metrics: bool = True
    span_capacity: int = 10_000
    message_trace_cap: int = 10_000
    http_port: Optional[int] = None


@dataclass
class DomainConfig:
    """Everything :meth:`TrustDomain.create` needs beyond the party list."""

    style: DeploymentStyle = DeploymentStyle.DIRECT
    scheme: str = "rsa"
    use_timestamping: bool = False
    relayed_protocols: Optional[List[str]] = None
    with_arbitrator: bool = False
    keypair_factory: Optional[Callable[[str], Any]] = None  # KeyPair
    transport: TransportConfig = field(default_factory=TransportConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    peering: Optional[PeeringConfig] = None
    observability: Optional[ObservabilityConfig] = None

    @classmethod
    def from_legacy_kwargs(
        cls,
        style: DeploymentStyle = DeploymentStyle.DIRECT,
        network: Optional[SimulatedNetwork] = None,
        fault_model: Optional[FaultModel] = None,
        clock: Optional[Clock] = None,
        scheme: str = "rsa",
        use_timestamping: bool = False,
        relayed_protocols: Optional[List[str]] = None,
        with_arbitrator: bool = False,
        dispatch: Optional[DispatchStrategy] = None,
        evidence_backend_factory: Optional[BackendFactory] = None,
        transport: Optional[Any] = None,
        durable_runs: bool = False,
        run_journal_backend_factory: Optional[BackendFactory] = None,
        orphan_run_timeout: Optional[float] = None,
        keypair_factory: Optional[Callable[[str], Any]] = None,
        fault_plan: Optional[FaultPlan] = None,
        storage: Optional[str] = None,
        peering: Optional[PeeringConfig] = None,
        durable_state: bool = False,
        state_backend_factory: Optional[BackendFactory] = None,
    ) -> "DomainConfig":
        """Build a config from the historical flat keyword surface."""
        return cls(
            style=style,
            scheme=scheme,
            use_timestamping=use_timestamping,
            relayed_protocols=relayed_protocols,
            with_arbitrator=with_arbitrator,
            keypair_factory=keypair_factory,
            transport=TransportConfig(
                wire=transport, network=network, clock=clock, dispatch=dispatch
            ),
            durability=DurabilityConfig(
                durable_runs=durable_runs,
                storage=storage,
                evidence_backend_factory=evidence_backend_factory,
                run_journal_backend_factory=run_journal_backend_factory,
                orphan_run_timeout=orphan_run_timeout,
                durable_state=durable_state,
                state_backend_factory=state_backend_factory,
            ),
            faults=FaultConfig(plan=fault_plan, model=fault_model),
            peering=peering,
        )

    def validate(self) -> None:
        """Raise :class:`ProtocolError` on any invalid field combination.

        The single home of every cross-field rule: both the ``config=``
        path and the legacy kwarg path of :meth:`TrustDomain.create` run
        through here, so invalid combinations fail identically (and with
        the historical messages).
        """
        if self.faults.model is not None and self.faults.plan is not None:
            raise ProtocolError(
                "pass fault_model= or fault_plan=, not both (a FaultModel "
                "is expressible as a FaultPlan via from_fault_model)"
            )
        if self.durability.storage is not None and (
            self.durability.evidence_backend_factory is not None
            or self.durability.run_journal_backend_factory is not None
            or self.durability.state_backend_factory is not None
        ):
            raise ProtocolError(
                "pass storage= or explicit backend factories, not both: a "
                "storage profile provisions every per-organisation backend"
            )
        if self.durability.storage is not None:
            StorageProfile.parse(self.durability.storage)  # raises on nonsense
        if self.peering is not None:
            self.peering.to_policy()  # bounds-checks the policy fields
        observability = self.observability
        if observability is not None:
            if observability.span_capacity <= 0:
                raise ProtocolError("observability span_capacity must be positive")
            if observability.message_trace_cap <= 0:
                raise ProtocolError("observability message_trace_cap must be positive")
            port = observability.http_port
            if port is not None and not (0 <= port <= 65535):
                raise ProtocolError(
                    f"observability http_port must be 0..65535, got {port}"
                )
        wire = self.transport.wire
        if wire is None:
            if self.peering is not None:
                raise ProtocolError(
                    "peering= needs a wire transport: lazy channel management "
                    "applies to socket-backed deployments (pass transport=)"
                )
            if (
                self.observability is not None
                and self.observability.http_port is not None
            ):
                raise ProtocolError(
                    "observability http_port= needs a wire transport: the "
                    "exporter endpoint is served from the WireTransport "
                    "(in-process domains dump snapshots directly)"
                )
            return
        from repro.transport.wire import WireTransport  # local: avoid cycle

        if not isinstance(wire, WireTransport):
            raise ProtocolError(
                f"transport must be a WireTransport, got {type(wire).__name__}"
            )
        if (
            self.style is not DeploymentStyle.DIRECT
            or self.relayed_protocols is not None
        ):
            raise ProtocolError(
                "wire transports support the DIRECT deployment style only "
                "(no relayed protocols); TTP-relayed styles need an "
                "in-process TTP host"
            )
        if self.transport.network is not None:
            raise ProtocolError(
                "a wire domain uses the transport's own network; to inject "
                "faults pass fault_plan= (or fault_model=) instead of a "
                "SimulatedNetwork"
            )
        if self.use_timestamping or self.with_arbitrator:
            raise ProtocolError(
                "timestamping authorities and arbitrators are in-process "
                "services; host them as parties instead on a wire domain"
            )
        clock = self.transport.clock
        if clock is not None and clock is not wire.network.clock:
            # A half-applied clock (organisations virtual, network/scheduler
            # wall) would mix timestamp domains; the transport owns the
            # clock, so it must be set there.
            raise ProtocolError(
                "a wire domain runs on its transport's clock; pass clock= to "
                "WireTransport(...) instead"
            )
