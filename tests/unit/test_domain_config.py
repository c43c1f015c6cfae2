"""The consolidated DomainConfig surface of ``TrustDomain.create``.

Covers the two acceptance properties of the config redesign: the
``config=`` path and the legacy flat-kwarg path produce equivalent
domains (property-tested over the grouped knobs), and every invalid
field combination is raised from :meth:`DomainConfig.validate` -- with
the historical messages -- on *both* paths.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import (
    DeploymentStyle,
    DomainConfig,
    DurabilityConfig,
    FaultConfig,
    PeeringConfig,
    TransportConfig,
)
from repro.core.trust_domain import TrustDomain
from repro.errors import PersistenceError, ProtocolError
from repro.faults import FaultPlan
from repro.transport.network import FaultModel, SimulatedNetwork

PARTIES = ["urn:org:a", "urn:org:b"]

_SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _fingerprint(domain):
    """The observable deployment structure, for equivalence comparison."""
    return {
        "style": domain.style,
        "organisations": sorted(domain.organisations),
        "ttps": sorted(domain.ttps),
        "arbitrator": domain.arbitrator_uri,
        "timestamping": domain.timestamp_authority is not None,
        "relays": sorted(domain.relays),
    }


class TestEquivalence:
    @given(
        style=st.sampled_from(list(DeploymentStyle)),
        use_timestamping=st.booleans(),
        with_arbitrator=st.booleans(),
        durable_runs=st.booleans(),
    )
    @_SETTINGS
    def test_config_and_legacy_kwargs_build_equivalent_domains(
        self,
        style,
        use_timestamping,
        with_arbitrator,
        durable_runs,
    ):
        legacy = TrustDomain.create(
            PARTIES,
            style=style,
            use_timestamping=use_timestamping,
            with_arbitrator=with_arbitrator,
            durable_runs=durable_runs,
        )
        config = DomainConfig(
            style=style,
            use_timestamping=use_timestamping,
            with_arbitrator=with_arbitrator,
            durability=DurabilityConfig(durable_runs=durable_runs),
        )
        configured = TrustDomain.create(PARTIES, config=config)
        assert _fingerprint(legacy) == _fingerprint(configured)

    def test_both_paths_coordinate_identically(self):
        outcomes = []
        for domain in (
            TrustDomain.create(PARTIES, style=DeploymentStyle.INLINE_TTP),
            TrustDomain.create(
                PARTIES, config=DomainConfig(style=DeploymentStyle.INLINE_TTP)
            ),
        ):
            domain.share_object("doc", {"v": 0})
            outcome = domain.organisation("urn:org:a").propose_update(
                "doc", {"v": 1}
            )
            outcomes.append((outcome.agreed, outcome.new_version))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is True

    def test_fault_surfaces_reach_the_network_identically(self):
        plan = FaultPlan(seed=7)
        via_kwarg = TrustDomain.create(PARTIES, fault_plan=plan)
        via_config = TrustDomain.create(
            PARTIES, config=DomainConfig(faults=FaultConfig(plan=plan))
        )
        assert via_kwarg.network.fault_plan is plan
        assert via_config.network.fault_plan is plan
        model = FaultModel(drop_probability=0.5, seed=b"\x03")
        via_model = TrustDomain.create(
            PARTIES, config=DomainConfig(faults=FaultConfig(model=model))
        )
        assert via_model.network.fault_model is model


class TestMixingPaths:
    def test_config_with_non_default_kwarg_is_rejected(self):
        with pytest.raises(ProtocolError, match="not both.*durable_runs"):
            TrustDomain.create(PARTIES, config=DomainConfig(), durable_runs=True)

    def test_config_with_default_valued_kwargs_is_fine(self):
        domain = TrustDomain.create(
            PARTIES, config=DomainConfig(), style=DeploymentStyle.DIRECT
        )
        assert domain.style is DeploymentStyle.DIRECT


class TestValidation:
    def test_fault_model_and_plan_are_exclusive(self):
        config = DomainConfig(
            faults=FaultConfig(plan=FaultPlan(seed=1), model=FaultModel())
        )
        with pytest.raises(ProtocolError, match="not both"):
            config.validate()
        with pytest.raises(ProtocolError, match="not both"):
            TrustDomain.create(
                PARTIES, fault_plan=FaultPlan(seed=1), fault_model=FaultModel()
            )

    def test_storage_and_explicit_factories_are_exclusive(self):
        from repro.persistence.storage import InMemoryBackend

        config = DomainConfig(
            durability=DurabilityConfig(
                storage="memory",
                evidence_backend_factory=lambda uri: InMemoryBackend(),
            )
        )
        with pytest.raises(ProtocolError, match="storage= or explicit"):
            config.validate()

    def test_unknown_storage_profile_fails_validation(self):
        config = DomainConfig(durability=DurabilityConfig(storage="postgres:x"))
        with pytest.raises(PersistenceError, match="unknown storage profile"):
            config.validate()

    def test_peering_needs_a_wire_transport(self):
        config = DomainConfig(peering=PeeringConfig())
        with pytest.raises(ProtocolError, match="needs a wire transport"):
            config.validate()

    def test_peering_bounds_are_checked(self):
        config = DomainConfig(peering=PeeringConfig(max_live_channels=0))
        with pytest.raises(ProtocolError, match="cap must be >= 1"):
            config.validate()

    def test_wire_transport_type_is_checked(self):
        config = DomainConfig(transport=TransportConfig(wire=object()))
        with pytest.raises(ProtocolError, match="must be a WireTransport"):
            config.validate()

    def test_wire_rejects_relayed_styles_and_services(self):
        from repro.transport.wire import WireTransport

        with WireTransport(["urn:org:a"], port=0) as transport:
            ttp_style = DomainConfig(
                style=DeploymentStyle.INLINE_TTP,
                transport=TransportConfig(wire=transport),
            )
            with pytest.raises(ProtocolError, match="DIRECT deployment style"):
                ttp_style.validate()
            own_network = DomainConfig(
                transport=TransportConfig(wire=transport, network=SimulatedNetwork())
            )
            with pytest.raises(ProtocolError, match="transport's own network"):
                own_network.validate()
            services = DomainConfig(
                use_timestamping=True,
                transport=TransportConfig(wire=transport),
            )
            with pytest.raises(ProtocolError, match="in-process services"):
                services.validate()
            foreign_clock = DomainConfig(
                transport=TransportConfig(wire=transport, clock=object())
            )
            with pytest.raises(ProtocolError, match="transport's clock"):
                foreign_clock.validate()

    def test_party_list_rules_stay_on_create(self):
        with pytest.raises(ProtocolError, match="at least two"):
            TrustDomain.create(["urn:org:solo"], config=DomainConfig())
        with pytest.raises(ProtocolError, match="must be unique"):
            TrustDomain.create(
                ["urn:org:a", "urn:org:a"], config=DomainConfig()
            )


class TestStorageProvisioning:
    def test_memory_profile_matches_default_behaviour(self):
        domain = TrustDomain.create(PARTIES, storage="memory")
        org = domain.organisation("urn:org:a")
        domain.share_object("doc", {"v": 0})
        assert org.propose_update("doc", {"v": 1}).agreed
        assert org.evidence_store.total_records() > 0

    def test_sqlite_profile_persists_evidence_across_reopen(self, tmp_path):
        db = tmp_path / "domain.db"
        domain = TrustDomain.create(PARTIES, storage=f"sqlite:{db}")
        domain.share_object("doc", {"v": 0})
        outcome = domain.organisation("urn:org:a").propose_update("doc", {"v": 1})
        assert outcome.agreed
        run_id = outcome.run_id
        stored = domain.organisation("urn:org:a").evidence_store.evidence_for_run(
            run_id
        )
        assert stored
        # a later domain over the same file sees the prior run's evidence
        reopened = TrustDomain.create(PARTIES, storage=f"sqlite:{db}")
        store = reopened.organisation("urn:org:a").evidence_store
        assert run_id in store.run_ids()
        assert len(store.evidence_for_run(run_id)) == len(stored)

    def test_sqlite_profile_audit_log_survives_reopen(self, tmp_path):
        db = tmp_path / "domain.db"
        domain = TrustDomain.create(PARTIES, storage=f"sqlite:{db}")
        domain.share_object("doc", {"v": 0})
        domain.organisation("urn:org:a").propose_update("doc", {"v": 1})
        count = len(domain.organisation("urn:org:a").audit_log.records())
        assert count > 0
        reopened = TrustDomain.create(PARTIES, storage=f"sqlite:{db}")
        log = reopened.organisation("urn:org:a").audit_log
        assert len(log.records()) >= count
        assert log.verify_integrity()

    def test_file_profile_isolates_stores_on_disk(self, tmp_path):
        domain = TrustDomain.create(
            PARTIES, storage=f"file:{tmp_path}", durable_runs=True
        )
        domain.share_object("doc", {"v": 0})
        assert domain.organisation("urn:org:a").propose_update("doc", {"v": 1}).agreed
        owner_dir = tmp_path / "urn_org_a"
        assert (owner_dir / "evidence").is_dir()
        assert (owner_dir / "audit").is_dir()
        assert (owner_dir / "runjournal").is_dir()
