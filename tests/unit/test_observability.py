"""Unit tests for the observability plane.

Covers the metrics registry (including histogram shard merges under real
thread concurrency), the zero-effect guarantee of disabled mode, Prometheus
rendering, audit-record trace correlation, the bounded message-trace
recorder shared by both transports, configuration validation and the span
CLI.
"""

from __future__ import annotations

import io
import json
import threading
from contextlib import redirect_stdout

import pytest

from repro import TrustDomain
from repro.clock import SimulatedClock
from repro.core.config import DomainConfig, ObservabilityConfig
from repro.observability import runtime, tracing
from repro.observability.exporters import (
    metrics_snapshot,
    render_json,
    render_prometheus,
)
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.trace import main as trace_main
from repro.persistence.audit_log import AuditLog
from repro.transport.network import Message, SimulatedNetwork
from repro.transport.recorder import MessageTraceRecorder

OBJECT_ID = "obs-doc"


@pytest.fixture(autouse=True)
def _observability_off():
    """Every test starts and ends with the plane disabled."""
    runtime.disable()
    yield
    runtime.disable()


def _uris(count):
    return [f"urn:org:obs{i}" for i in range(count)]


def _run_update(observability=None):
    uris = _uris(3)
    if observability is not None:
        from repro.core.config import TransportConfig

        domain = TrustDomain.create(
            uris,
            config=DomainConfig(
                scheme="hmac",
                transport=TransportConfig(clock=SimulatedClock()),
                observability=observability,
            ),
        )
    else:
        domain = TrustDomain.create(uris, scheme="hmac", clock=SimulatedClock())
    domain.share_object(OBJECT_ID, {"v": 0})
    outcome = domain.organisation(uris[0]).propose_update(OBJECT_ID, {"v": 1})
    assert outcome.agreed, outcome.reason
    return domain, outcome


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        registry.inc("a.count", 2)
        registry.set_gauge("a.level", 7)
        registry.observe("a.latency", 0.0002)
        snap = registry.snapshot()
        assert snap["counters"]["a.count"] == 3
        assert snap["gauges"]["a.level"] == 7
        histogram = snap["histograms"]["a.latency"]
        assert histogram["count"] == 1
        assert histogram["sum"] == pytest.approx(0.0002)
        # Cumulative buckets end with the +Inf bound covering everything.
        assert histogram["buckets"][-1][1] == 1

    def test_histogram_merges_shards_across_threads(self):
        histogram = Histogram("x", buckets=(0.5, 1.5))
        per_thread, threads = 500, 8

        def work():
            for _ in range(per_thread):
                histogram.observe(1.0)

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        snap = histogram.snapshot()
        expected = per_thread * threads
        assert snap["count"] == expected
        assert snap["sum"] == pytest.approx(float(expected))
        # All observations land in the second bucket (0.5 < 1.0 <= 1.5).
        assert dict(snap["buckets"])[0.5] == 0
        assert dict(snap["buckets"])[1.5] == expected

    def test_collectors_overwrite_by_name_and_survive_breakage(self):
        registry = MetricsRegistry()
        registry.register_collector("probe", lambda: {"x.v": 1})
        registry.register_collector("probe", lambda: {"x.v": 2})

        def broken():
            raise RuntimeError("probe died")

        registry.register_collector("broken", broken)
        snap = registry.snapshot()
        assert snap["gauges"]["x.v"] == 2  # same-name registration replaced
        registry.unregister_collector("probe")
        assert "x.v" not in registry.snapshot()["gauges"]


class TestDisabledModeIsZeroEffect:
    def test_messages_carry_no_trace_and_no_spans_exist(self):
        domain, _ = _run_update()
        network = domain.network
        network.trace_enabled = True
        domain.organisation(_uris(3)[0]).propose_update(OBJECT_ID, {"v": 2})
        assert network.trace, "recorder captured nothing"
        assert all(message.trace is None for message in network.trace)
        assert runtime.STATE.tracing is None
        assert runtime.STATE.metrics is None

    def test_gated_counters_identical_on_off(self):
        baseline, _ = _run_update()
        runtime.enable(ObservabilityConfig())
        observed, _ = _run_update()
        base, obs = baseline.network.statistics, observed.network.statistics
        assert obs.messages_sent == base.messages_sent
        assert obs.messages_delivered == base.messages_delivered
        assert obs.bytes_delivered == base.bytes_delivered
        assert obs.per_operation == base.per_operation
        # ...and the enabled run really did record a span tree.
        run_ids = runtime.STATE.tracing.trace_ids()
        assert len(run_ids) == 1

    def test_trace_key_not_charged_to_byte_accounting(self):
        message = Message(
            sender="a", destination="b", operation="op", payload={"k": 1}
        )
        bare = message.encoded_size()
        message.trace = ("trace-1", "span-1")
        assert message.encoded_size() == bare


class TestTracingIntegration:
    def test_one_update_is_one_connected_tree(self):
        runtime.enable(ObservabilityConfig())
        _, outcome = _run_update()
        collector = runtime.STATE.tracing
        spans = collector.spans(outcome.run_id)
        assert spans, "no spans collected for the run"
        roots = tracing.build_tree(spans, outcome.run_id)
        assert len(roots) == 1
        assert roots[0]["name"] == "run:update"
        assert roots[0]["status"] == "agreed"
        names = {span["name"] for span in spans}
        assert "commit" in names
        assert any(name.startswith("request:") for name in names)
        assert "handle:proposal" in names
        assert "handle:outcome" in names

    def test_run_duration_histogram_observed(self):
        runtime.enable(ObservabilityConfig())
        _run_update()
        snap = metrics_snapshot()
        assert snap["histograms"]["run.duration_seconds"]["count"] >= 1
        assert snap["histograms"]["crypto.sign_seconds"]["count"] >= 1
        assert snap["histograms"]["crypto.verify_seconds"]["count"] >= 1
        assert snap["histograms"]["codec.encode_seconds"]["count"] >= 1

    def test_domain_config_registers_pull_collectors(self):
        runtime.disable()
        domain, _ = _run_update(observability=ObservabilityConfig())
        snap = metrics_snapshot()
        assert snap["gauges"]["network.messages_sent"] > 0
        uri = _uris(3)[0]
        assert snap["gauges"][f"audit.records.{uri}"] > 0
        assert snap["gauges"][f"evidence.records.{uri}"] > 0

    def test_a_run_restores_the_callers_ambient_context(self):
        # The run root is activated by start() and again by each phase that
        # continues inline; every activation must restore what it replaced.
        runtime.enable(ObservabilityConfig())
        assert tracing.current_ctx() is None
        _run_update()
        assert tracing.current_ctx() is None
        with tracing.activate(("trace-caller", "span-caller")):
            _run_update()
            assert tracing.current_ctx() == ("trace-caller", "span-caller")

    def test_one_span_can_be_activated_again_while_ambient(self):
        runtime.enable(ObservabilityConfig())
        span = runtime.STATE.tracing.start_span("outer")
        with span.activate():
            with span.activate():
                assert tracing.current_ctx() == span.ctx
            assert tracing.current_ctx() == span.ctx
        assert tracing.current_ctx() is None

    def test_scheduler_restores_ctx_at_fire(self):
        from repro.transport.scheduler import RetryScheduler

        runtime.enable(ObservabilityConfig())
        clock = SimulatedClock()
        scheduler = RetryScheduler(clock)
        seen = []
        with tracing.activate(("trace-t", "span-s")):
            scheduler.schedule(1.0, lambda: seen.append(tracing.current_ctx()))
        assert tracing.current_ctx() is None
        clock.advance(1.5)
        scheduler.fire_due()
        assert seen == [("trace-t", "span-s")]


class TestAuditTraceCorrelation:
    def test_append_stamps_active_span_and_filter_joins(self):
        runtime.enable(ObservabilityConfig())
        log = AuditLog("urn:org:a")
        with tracing.activate(("trace-1", "span-1")):
            log.append(category="test", subject="run-1", details={"k": "v"})
        log.append(category="test", subject="run-2")
        stamped = log.records(trace_id="trace-1")
        assert len(stamped) == 1
        assert stamped[0].details["span_id"] == "span-1"
        assert stamped[0].details["k"] == "v"
        assert log.records(trace_id="other") == []

    def test_explicit_trace_details_win(self):
        runtime.enable(ObservabilityConfig())
        log = AuditLog("urn:org:a")
        with tracing.activate(("ambient", "span")):
            log.append(
                category="test",
                subject="run",
                details={"trace_id": "explicit"},
            )
        assert log.records()[0].details["trace_id"] == "explicit"

    def test_disabled_appends_are_unstamped(self):
        log = AuditLog("urn:org:a")
        with tracing.activate(("trace-1", "span-1")):
            log.append(category="test", subject="run-1")
        assert "trace_id" not in log.records()[0].details

    def test_run_audits_join_the_span_tree(self):
        runtime.enable(ObservabilityConfig())
        domain, outcome = _run_update()
        org = domain.organisation(_uris(3)[0])
        joined = org.audit_records(trace_id=outcome.run_id)
        assert joined, "no audit records were stamped with the run's trace"
        assert all(
            record.details["trace_id"] == outcome.run_id for record in joined
        )


class TestMessageTraceRecorder:
    def test_capacity_bounds_the_buffer(self):
        recorder = MessageTraceRecorder(cap=3)
        for index in range(10):
            recorder.record(index)
        assert recorder.messages() == [7, 8, 9]
        assert len(recorder) == 3
        recorder.set_cap(2)
        assert recorder.cap == 2

    def test_network_capture_is_bounded(self):
        network = SimulatedNetwork(clock=SimulatedClock())
        network.trace_enabled = True
        network.set_trace_capacity(5)
        network.register("urn:b", lambda message: None)
        for index in range(20):
            network.send("urn:a", "urn:b", "op", {"i": index})
        assert len(network.trace) == 5
        assert network.trace[-1].payload == {"i": 19}


class TestExporters:
    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.inc("network.messages_sent", 4)
        registry.set_gauge("scheduler.pending_timers", 2)
        registry.observe("crypto.sign_seconds", 0.00005)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_network_messages_sent_total counter" in text
        assert "repro_network_messages_sent_total 4.0" in text
        assert "repro_scheduler_pending_timers 2.0" in text
        assert 'repro_crypto_sign_seconds_bucket{le="0.0001"} 1' in text
        assert 'repro_crypto_sign_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_crypto_sign_seconds_count 1" in text

    def test_json_snapshot_roundtrips(self):
        registry = MetricsRegistry()
        registry.inc("a.b", 1)
        parsed = json.loads(render_json(registry.snapshot()))
        assert parsed["counters"]["a.b"] == 1


class TestConfigValidation:
    def test_http_port_requires_wire_transport(self):
        config = DomainConfig(
            observability=ObservabilityConfig(http_port=0)
        )
        with pytest.raises(Exception, match="http_port"):
            config.validate()

    def test_bad_capacities_rejected(self):
        with pytest.raises(Exception, match="span_capacity"):
            DomainConfig(
                observability=ObservabilityConfig(span_capacity=0)
            ).validate()
        with pytest.raises(Exception, match="message_trace_cap"):
            DomainConfig(
                observability=ObservabilityConfig(message_trace_cap=-1)
            ).validate()
        with pytest.raises(Exception, match="http_port"):
            DomainConfig(
                observability=ObservabilityConfig(http_port=70000)
            ).validate()


class TestSuspendResume:
    def test_suspend_pauses_without_dropping_state(self):
        runtime.enable(ObservabilityConfig())
        collector = runtime.STATE.tracing
        collector.start_span("kept", trace_id="t1").end()

        snapshot = runtime.suspend()
        assert not runtime.enabled()
        collector.start_span  # components survive detached
        runtime.resume(snapshot)
        assert runtime.enabled()
        assert runtime.STATE.tracing is collector
        assert collector.trace_ids() == ["t1"]

    def test_suspended_sites_record_nothing(self):
        runtime.enable(ObservabilityConfig())
        snapshot = runtime.suspend()
        _run_update()
        runtime.resume(snapshot)
        assert runtime.STATE.tracing.trace_ids() == []


class TestTraceCLI:
    def _export(self, tmp_path):
        runtime.enable(ObservabilityConfig())
        _, outcome = _run_update()
        path = tmp_path / "spans.json"
        path.write_text(runtime.STATE.tracing.export_json())
        return str(path), outcome.run_id

    def test_renders_tree(self, tmp_path):
        path, run_id = self._export(tmp_path)
        out = io.StringIO()
        with redirect_stdout(out):
            status = trace_main([path, "--trace", run_id])
        assert status == 0
        rendered = out.getvalue()
        assert f"trace {run_id}" in rendered
        assert "run:update" in rendered
        assert "commit" in rendered

    def test_lists_trace_ids(self, tmp_path):
        path, run_id = self._export(tmp_path)
        out = io.StringIO()
        with redirect_stdout(out):
            status = trace_main([path, "--list"])
        assert status == 0
        assert run_id in out.getvalue()

    def test_unknown_trace_fails(self, tmp_path):
        path, _ = self._export(tmp_path)
        assert trace_main([path, "--trace", "nope"]) == 1
