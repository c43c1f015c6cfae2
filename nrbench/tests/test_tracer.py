"""Tracer: self time on nested and cross-thread spans, and full un-patching."""

import sys
import threading
import time
import types

import pytest

from nrbench.layers import MISSING, Ledger
from nrbench.tracer import EntryPoint, Tracer

FAKE_A = "repro._nrbench_fake_a"
FAKE_B = "repro._nrbench_fake_b"


def spin(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


@pytest.fixture
def fake_modules():
    """Two ``repro.*`` namespaces; the second re-exports the first's function."""
    module_a = types.ModuleType(FAKE_A)
    exec(
        "def inner(seconds):\n"
        "    spin(seconds)\n"
        "    return 'inner'\n"
        "class Service:\n"
        "    def outer(self, seconds, threaded=False):\n"
        "        spin(seconds)\n"
        "        if threaded:\n"
        "            worker = threading.Thread(target=inner, args=(seconds,))\n"
        "            worker.start()\n"
        "            worker.join()\n"
        "        else:\n"
        "            inner(seconds)\n"
        "        return 'outer'\n",
        module_a.__dict__,
    )
    module_a.spin = spin
    module_a.threading = threading
    module_b = types.ModuleType(FAKE_B)
    module_b.reexported = module_a.inner
    sys.modules[FAKE_A] = module_a
    sys.modules[FAKE_B] = module_b
    yield module_a, module_b
    del sys.modules[FAKE_A], sys.modules[FAKE_B]


ENTRIES = [
    EntryPoint(f"{FAKE_A}:Service.outer", "upper"),
    EntryPoint(f"{FAKE_A}:inner", "lower"),
    EntryPoint(f"{FAKE_A}:removed_by_a_refactor", "lower"),
    EntryPoint("repro._nrbench_no_such_module:anything", "gone"),
]


def test_nested_self_time_telescopes_to_the_root(fake_modules):
    module_a, _ = fake_modules
    tracer = Tracer(ENTRIES)
    tracer.install()
    try:
        tracer.start()
        with tracer.operation(0):
            assert module_a.Service().outer(0.002) == "outer"
        tracer.stop()
    finally:
        tracer.uninstall()
    rows = tracer.aggregates()
    root, outer, inner = (
        rows["nrbench:op"], rows[f"{FAKE_A}:Service.outer"], rows[f"{FAKE_A}:inner"]
    )
    assert (root["calls"], outer["calls"], inner["calls"]) == (1, 1, 1)
    assert inner["self_ns"] == inner["total_ns"] >= 2_000_000
    assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"] >= 2_000_000
    assert root["self_ns"] == root["total_ns"] - outer["total_ns"]
    assert sum(row["self_ns"] for row in rows.values()) == root["total_ns"]
    spans = {span[2]: span for _, span in tracer.spans()}
    assert spans[2][1] == spans[1][0] and spans[1][1] == spans[0][0]  # parent links
    assert {span[5] for span in spans.values()} == {0}  # op index is the trace id


def test_a_span_on_another_thread_is_charged_to_the_waiting_span(fake_modules):
    module_a, _ = fake_modules
    tracer = Tracer(ENTRIES)
    tracer.install()
    try:
        tracer.start()
        with tracer.operation(3):
            module_a.Service().outer(0.002, threaded=True)
        tracer.stop()
    finally:
        tracer.uninstall()
    rows = tracer.aggregates()
    outer, inner = rows[f"{FAKE_A}:Service.outer"], rows[f"{FAKE_A}:inner"]
    assert inner["calls"] == 1
    # The waiting span's self time excludes the worker's span: nothing is
    # counted twice, and the ledger still sums to the operation's duration.
    assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]
    assert sum(row["self_ns"] for row in rows.values()) == rows["nrbench:op"]["total_ns"]
    threads = {ident for ident, _ in tracer.spans()}
    assert len(threads) == 2
    spans = {span[2]: span for _, span in tracer.spans()}
    assert spans[2][1] == spans[1][0]  # adopted by the span that waited for it


def test_spans_outside_any_operation_are_roots(fake_modules):
    module_a, _ = fake_modules
    tracer = Tracer(ENTRIES)
    tracer.install()
    try:
        tracer.start()
        module_a.inner(0.0)
        tracer.stop()
    finally:
        tracer.uninstall()
    (_, span), = tracer.spans()
    assert span[1] == 0 and span[5] == -1


def test_uninstall_restores_every_binding(fake_modules):
    module_a, module_b = fake_modules
    original_inner = module_a.inner
    original_outer = module_a.Service.__dict__["outer"]
    tracer = Tracer(ENTRIES)
    tracer.install()
    assert module_a.inner is not original_inner
    assert module_b.reexported is module_a.inner  # the re-export is wrapped too
    assert module_a.Service.__dict__["outer"] is not original_outer
    assert module_a.inner(0.0) == "inner"  # inactive wrappers pass through
    tracer.uninstall()
    assert module_a.inner is original_inner
    assert module_b.reexported is original_inner
    assert module_a.Service.__dict__["outer"] is original_outer
    tracer.uninstall()  # idempotent
    assert all(row["calls"] == 0 for row in tracer.aggregates().values())


def test_missing_entry_points_are_reported_not_fatal(fake_modules):
    tracer = Tracer(ENTRIES)
    missing = tracer.install()
    tracer.uninstall()
    assert missing == [
        f"{FAKE_A}:removed_by_a_refactor",
        "repro._nrbench_no_such_module:anything",
    ]


def test_ledger_marks_metrics_of_missing_entry_points():
    aggregates = {
        "nrbench:op": {"calls": 2, "total_ns": 4_000_000, "self_ns": 1_000_000, "units": 0},
        "repro.codec:encode_text": {
            "calls": 6, "total_ns": 3_000_000, "self_ns": 3_000_000, "units": 600,
        },
        "repro.codec:decode": {"calls": 0, "total_ns": 0, "self_ns": 0, "units": 0},
    }
    ledger = Ledger(aggregates, ["repro.codec:decode"], ops=2, root_layer="core.engine")
    assert ledger.per_op(["repro.codec:encode_text"]) == 3.0
    assert ledger.per_op(["repro.codec:encode_text"], "units") == 300.0
    assert ledger.per_op(["repro.codec:decode"]) == MISSING
    assert ledger.per_op(["repro.codec:encode_text", "repro.codec:decode"]) == 3.0
    assert not ledger.layer_missing("codec")
    self_ms = ledger.layer_self_ms()
    assert self_ms["codec"] == 1.5 and self_ms["core.engine"] == 0.5
    assert sum(self_ms.values()) == 2.0
