"""Unit tests for the seeded fault-plan DSL and its injector.

Covers rule/plan validation, the JSON schedule round trip, seeded
determinism, the bounded-consecutive-loss guarantee, partition windows,
``max_shots`` budgets, legacy :class:`FaultModel` bridging, the
hit-count semantics of crash failpoints, and that a simulated network with
nothing that can fire never consults the injector.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import (
    FailpointRegistry,
    FaultInjector,
    FaultPlan,
    FaultRule,
    VERB_CLOSE,
)
from repro.transport.network import FaultModel, SimulatedNetwork


class TestFaultRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(fault="gremlin")

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(fault="drop", probability=1.5)

    def test_deterministic_kinds_refuse_probability(self):
        with pytest.raises(ValueError, match="deterministic"):
            FaultRule(fault="partition", probability=0.5)
        with pytest.raises(ValueError, match="deterministic"):
            FaultRule(
                fault="crash", probability=0.5, failpoint="server-before-reply"
            )

    def test_crash_needs_a_failpoint(self):
        with pytest.raises(ValueError, match="failpoint"):
            FaultRule(fault="crash")

    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError, match="until_message"):
            FaultRule(fault="drop", after_message=5, until_message=5)

    def test_max_shots_positive(self):
        with pytest.raises(ValueError, match="max_shots"):
            FaultRule(fault="drop", max_shots=0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-rule fields"):
            FaultRule.from_dict({"fault": "drop", "probabilty": 0.1})

    def test_filters_and_window(self):
        rule = FaultRule(
            fault="drop",
            sender="a",
            destination="b",
            operation="op",
            after_message=2,
            until_message=4,
        )
        assert rule.matches("a", "b", "op", 2)
        assert rule.matches("a", "b", "op", 3)
        assert not rule.matches("a", "b", "op", 4)
        assert not rule.matches("a", "b", "op", 1)
        assert not rule.matches("x", "b", "op", 2)
        assert not rule.matches("a", "x", "op", 2)
        assert not rule.matches("a", "b", "other", 2)


class TestScheduleDSL:
    def test_round_trip_preserves_the_plan(self):
        plan = FaultPlan(
            rules=(
                FaultRule(fault="drop", probability=0.25, max_shots=3),
                FaultRule(
                    fault="delay", latency_seconds=0.5, jitter_seconds=0.1
                ),
                FaultRule(fault="partition", after_message=5, until_message=9),
                FaultRule(
                    fault="crash", failpoint="server-before-dispatch"
                ),
            ),
            seed=b"round-trip",
            max_consecutive_failures=3,
            name="round-trip-plan",
        )
        schedule = plan.to_schedule()
        # The artifact format must be plain JSON-serialisable data.
        rebuilt = FaultPlan.from_schedule(json.loads(json.dumps(schedule)))
        assert rebuilt == plan

    def test_seed_coercion(self):
        assert FaultPlan(seed=7).seed == (7).to_bytes(8, "big", signed=True)
        assert FaultPlan(seed="text").seed == b"text"
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=1.5)

    def test_plain_text_seed_in_a_handwritten_schedule(self):
        # Not valid hex -> kept verbatim as utf-8 bytes.
        plan = FaultPlan.from_schedule({"seed": "not-hex!", "rules": []})
        assert plan.seed == b"not-hex!"


class TestInjectorDeterminism:
    def _sequence(self, injector, count=50):
        return [
            injector.decide("urn:a", "urn:b", "op") for _ in range(count)
        ]

    def test_same_seed_same_decisions(self):
        plan = FaultPlan(
            rules=(
                FaultRule(fault="drop", probability=0.3),
                FaultRule(fault="duplicate", probability=0.3),
                FaultRule(fault="reorder", probability=0.3),
                FaultRule(
                    fault="delay", latency_seconds=0.01, jitter_seconds=0.02
                ),
            ),
            seed=b"determinism",
        )
        assert self._sequence(plan.injector()) == self._sequence(plan.injector())

    def test_different_seeds_diverge(self):
        rules = (FaultRule(fault="drop", probability=0.5),)
        one = FaultPlan(rules=rules, seed=b"seed-one").injector()
        two = FaultPlan(rules=rules, seed=b"seed-two").injector()
        assert self._sequence(one) != self._sequence(two)

    def test_consecutive_losses_are_bounded(self):
        plan = FaultPlan(
            rules=(FaultRule(fault="drop", probability=1.0),),
            max_consecutive_failures=4,
        )
        injector = plan.injector()
        decisions = self._sequence(injector, count=10)
        # 4 drops, then the bound forces one admission, repeating.
        assert [d.drop for d in decisions] == [
            True, True, True, True, False,
            True, True, True, True, False,
        ]

    def test_partition_window_is_exact_and_drawless(self):
        plan = FaultPlan(
            rules=(
                FaultRule(fault="partition", after_message=2, until_message=5),
            )
        )
        injector = plan.injector()
        partitioned = [
            injector.decide("urn:a", "urn:b", "op").partitioned
            for _ in range(8)
        ]
        assert partitioned == [
            False, False, True, True, True, False, False, False,
        ]

    def test_max_shots_caps_rule_triggers(self):
        plan = FaultPlan(
            rules=(FaultRule(fault="drop", probability=1.0, max_shots=2),),
            max_consecutive_failures=100,
        )
        injector = plan.injector()
        drops = [
            injector.decide("urn:a", "urn:b", "op").drop for _ in range(5)
        ]
        assert drops == [True, True, False, False, False]

    def test_injector_requires_exactly_one_source(self):
        plan = FaultPlan()
        model = FaultModel(drop_probability=0.1)
        with pytest.raises(ValueError, match="exactly one"):
            FaultInjector()
        with pytest.raises(ValueError, match="exactly one"):
            FaultInjector(plan=plan, model=model)

    def test_model_mode_respects_the_consecutive_bound(self):
        injector = FaultInjector(
            model=FaultModel(
                drop_probability=1.0, max_consecutive_drops=3, seed=b"m"
            )
        )
        drops = [
            injector.decide("urn:a", "urn:b", "op").drop for _ in range(8)
        ]
        assert drops == [True, True, True, False, True, True, True, False]


class TestFaultModelBridge:
    def test_from_fault_model_lifts_every_configured_behaviour(self):
        model = FaultModel(
            drop_probability=0.2,
            duplicate_probability=0.1,
            latency_seconds=0.5,
            jitter_seconds=0.25,
            max_consecutive_drops=7,
            seed=b"legacy",
        )
        plan = FaultPlan.from_fault_model(model)
        assert plan.seed == b"legacy"
        assert plan.max_consecutive_failures == 7
        kinds = [rule.fault for rule in plan.rules]
        assert kinds == ["drop", "delay", "duplicate"]

    def test_from_fault_model_omits_disabled_behaviours(self):
        plan = FaultPlan.from_fault_model(FaultModel(drop_probability=0.5))
        assert [rule.fault for rule in plan.rules] == ["drop"]


class TestNetworkConsultsTheInjectorOnlyWhenSomethingCanFire:
    @staticmethod
    def _send_three(network):
        network.register("urn:b", lambda message: "ok")
        for _ in range(3):
            network.send("urn:a", "urn:b", "op", {"x": 1})

    def _count_decisions(self, monkeypatch, network):
        decisions = []
        decide = FaultInjector.decide

        def counting(self, *args):
            decisions.append(args)
            return decide(self, *args)

        monkeypatch.setattr(FaultInjector, "decide", counting)
        self._send_three(network)
        return len(decisions)

    def test_no_plan_and_an_all_zero_model_decide_nothing(self, monkeypatch):
        for network in (
            SimulatedNetwork(),
            SimulatedNetwork(fault_model=FaultModel(seed=b"s", max_consecutive_drops=2)),
        ):
            assert self._count_decisions(monkeypatch, network) == 0
            assert network.statistics.messages_delivered == 3

    def test_a_model_that_can_fire_and_any_plan_still_decide(self, monkeypatch):
        for network in (
            SimulatedNetwork(fault_model=FaultModel(latency_seconds=0.01)),
            SimulatedNetwork(fault_model=FaultModel(duplicate_probability=0.5, seed=b"d")),
            SimulatedNetwork(fault_plan=FaultPlan(rules=())),
        ):
            assert self._count_decisions(monkeypatch, network) == 3


class TestCrashFailpoints:
    def test_crash_rules_fire_by_hit_count(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    fault="crash",
                    failpoint="server-before-reply",
                    after_message=1,
                    until_message=2,
                ),
            )
        )
        injector = plan.injector()
        # Hits 0, 1, 2: only hit 1 falls inside the window.
        assert [
            injector.should_trigger("server-before-reply") for _ in range(3)
        ] == [False, True, False]
        # Unrelated failpoints never fire.
        assert not injector.should_trigger("server-before-dispatch")

    def test_registry_arms_fire_and_disarm(self):
        registry = FailpointRegistry()
        registry.arm("spot", max_shots=2, after_hits=1)
        # Hit 1 is within after_hits; hits 2 and 3 spend the two shots.
        assert registry.fire("spot") is None
        assert registry.fire("spot") == VERB_CLOSE
        assert registry.fire("spot") == VERB_CLOSE
        assert registry.fire("spot") is None
        registry.arm("gone")
        registry.disarm("gone")
        assert registry.fire("gone") is None

    def test_registry_callable_action(self):
        seen = []
        registry = FailpointRegistry()
        registry.arm(
            "hook", action=lambda context: seen.append(context) or "close"
        )
        assert registry.fire("hook", context={"k": 1}) == VERB_CLOSE
        assert seen == [{"k": 1}]

    def test_registry_consults_a_bound_injector(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    fault="crash", failpoint="spot", max_shots=1
                ),
            )
        )
        registry = FailpointRegistry()
        registry.bind_injector(plan.injector())
        assert registry.fire("spot") == VERB_CLOSE
        assert registry.fire("spot") is None
