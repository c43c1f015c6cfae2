"""From round results to the named metrics of ``BENCHMARK.json``.

End-to-end metrics come from untraced rounds only.  Times are the best round
(noise from other tenants of the machine only ever adds), counts must repeat
exactly on simulated workloads, and set-up time and memory are medians.
Per-layer metrics come from one traced round, plus the untraced rounds of the
same run for the tracing overhead and the same-round NR/plain ratio.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from nrbench import layers
from nrbench.estimators import best, drift_ratio, percentile, round_spread
from nrbench.layers import MISSING, Ledger

Round = Dict[str, Any]

COUNTERS = ("messages_per_op", "bytes_per_op", "evidence_bytes_per_op")
#: Below this many pooled samples a p99 has fewer than ten samples beyond it.
P99_MIN_SAMPLES = 1000
LEDGER_TOLERANCE = 0.02
TRACE_OVERHEAD_BUDGET = 0.10
#: Published as the best round, with the direction that is better; every
#: other end-to-end metric is published as the median round.
BEST_OF_ROUNDS = {
    "op_p50_ms": "lower",
    "op_p95_ms": "lower",
    "ops_per_s": "higher",
    "cpu_ms_per_op": "lower",
}


def round_p50(result: Round) -> float:
    return statistics.median(result["samples_ms"])


def round_values(result: Round) -> Dict[str, float]:
    """Every end-to-end metric as one round measured it."""
    values = {
        "setup_s": result["setup_s"],
        "op_p50_ms": round_p50(result),
        "op_p95_ms": percentile(result["samples_ms"], 0.95),
        "ops_per_s": result["ops"] / result["window_s"],
        "cpu_ms_per_op": result["cpu_s"] * 1e3 / result["ops"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    values.update({counter: result[counter] for counter in COUNTERS})
    return values


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """Every end-to-end metric of one workload from its untraced rounds."""
    per_round = [round_values(result) for result in rounds]
    return {
        name: (
            best([values[name] for values in per_round], BEST_OF_ROUNDS[name])
            if name in BEST_OF_ROUNDS
            else statistics.median(values[name] for values in per_round)
        )
        for name in per_round[0]
    }


def count_mismatches(rounds: List[Round]) -> List[str]:
    """Protocol counters that differ between rounds of a simulated workload."""
    if not rounds or not rounds[0]["exact_counts"]:
        return []
    return [
        f"{counter} differs between rounds: {sorted({r[counter] for r in rounds})}"
        for counter in COUNTERS
        if len({r[counter] for r in rounds}) > 1
    ]


def round_mean(result: Round) -> float:
    return statistics.mean(result["samples_ms"])


def least_disturbed(traced: List[Round]) -> Round:
    """The traced round the per-layer numbers are taken from."""
    return min(traced, key=round_mean)


def per_layer(
    untraced: List[Round], traced_rounds: List[Round]
) -> Tuple[Dict[str, float], List[Tuple[str, float, float]], List[str]]:
    """Per-layer metrics, the ledger rows and any ledger problems.

    The ledger rows are ``(layer, self ms per op, share of op time)``, largest
    first; problems name a ledger that does not close or a negative self
    time.  A tracing overhead over ``TRACE_OVERHEAD_BUDGET`` is reported as
    ``driver.trace_overhead_share`` and printed with a note, but is not a
    problem: it would fail every later change that makes the program faster
    under the same number of spans.
    """
    traced = least_disturbed(traced_rounds)
    trace = traced["trace"]
    ops = traced["ops"]
    ledger = Ledger(
        trace["aggregates"], trace["missing"], ops, trace["root_layer"], trace["peer"]
    )
    self_ms = ledger.layer_self_ms()

    def layer_ms(layer: str) -> float:
        return MISSING if ledger.layer_missing(layer) else self_ms[layer]

    network = traced["network"]
    memo = traced["memo"]
    attempts = memo["hits"] + memo["misses"]
    pooled = [sample for r in untraced for sample in r["samples_ms"]]
    plain = [sample for r in untraced for sample in r.get("plain_samples_us", [])]
    nr_over_plain = [
        round_p50(r) * 1e3 / statistics.median(r["plain_samples_us"])
        for r in untraced
        if r.get("plain_samples_us")
    ]
    # Median round against median round: a burst on either side cancels.
    overhead = (
        statistics.median(round_mean(r) for r in traced_rounds)
        / statistics.median(round_mean(r) for r in untraced)
        - 1.0
    )

    def network_count(key: str) -> float:
        return network.get(key, 0) / ops

    metrics = {
        "codec.calls_per_op": ledger.per_op([layers.CODEC_ENCODE, layers.CODEC_DECODE]),
        "codec.decode_calls_per_op": ledger.per_op([layers.CODEC_DECODE]),
        "codec.bytes_encoded_per_op": ledger.per_op([layers.CODEC_ENCODE], "units"),
        "codec.self_ms_per_op": layer_ms("codec"),
        "crypto.sign_calls_per_op": ledger.per_op([layers.SIGN]),
        "crypto.sign_self_ms_per_op": ledger.self_ms([layers.SIGN]),
        "crypto.verify_calls_per_op": ledger.per_op([layers.VERIFY]),
        "crypto.verify_self_ms_per_op": ledger.self_ms([layers.VERIFY]),
        "crypto.verify_memo_hit_ratio": memo["hits"] / attempts if attempts else 0.0,
        "crypto.hash_calls_per_op": ledger.per_op([layers.HASH]),
        "crypto.hash_self_ms_per_op": ledger.self_ms([layers.HASH]),
        "core.evidence.build_calls_per_op": ledger.per_op([layers.EVIDENCE_BUILD]),
        "core.evidence.self_ms_per_op": layer_ms("core.evidence"),
        "core.engine.self_ms_per_op": layer_ms("core.engine"),
        "core.dispute.self_ms_per_op": layer_ms("core.dispute"),
        "container.self_ms_per_op": layer_ms("container"),
        "container.plain_call_us": statistics.median(plain) if plain else 0.0,
        "container.nr_overhead_factor": (
            best(nr_over_plain, "lower") if nr_over_plain else 0.0
        ),
        "persistence.evidence_store.store_calls_per_op": ledger.per_op(
            [layers.STORE_WRITE]
        ),
        "persistence.evidence_store.read_calls_per_op": ledger.per_op(layers.STORE_READS),
        "persistence.evidence_store.self_ms_per_op": layer_ms(
            "persistence.evidence_store"
        ),
        "persistence.run_journal.writes_per_op": ledger.per_op(layers.JOURNAL_WRITES),
        "persistence.run_journal.self_ms_per_op": layer_ms("persistence.run_journal"),
        "persistence.state_store.writes_per_op": ledger.per_op(layers.STATE_WRITES),
        "persistence.state_store.self_ms_per_op": layer_ms("persistence.state_store"),
        "persistence.audit_log.appends_per_op": ledger.per_op([layers.AUDIT_APPEND]),
        "persistence.audit_log.self_ms_per_op": layer_ms("persistence.audit_log"),
        "persistence.backend.puts_per_op": ledger.per_op(layers.BACKEND_PUTS),
        "persistence.backend.put_bytes_per_op": ledger.per_op(
            layers.BACKEND_PUTS, "units"
        ),
        "persistence.backend.reads_per_op": ledger.per_op(layers.BACKEND_READS),
        "persistence.backend.self_ms_per_op": layer_ms("persistence.backend"),
        "transport.network.sends_per_op": ledger.per_op(layers.NETWORK_SENDS),
        "transport.network.self_ms_per_op": layer_ms("transport.network"),
        "transport.rmi.calls_per_op": ledger.per_op([layers.RMI_SERVE]),
        "transport.rmi.self_ms_per_op": layer_ms("transport.rmi"),
        "transport.delivery.attempts_per_op": network_count("attempts"),
        "transport.delivery.retries_per_op": network_count("retries"),
        "transport.delivery.self_ms_per_op": layer_ms("transport.delivery"),
        "transport.scheduler.timers_per_op": ledger.per_op([layers.TIMER]),
        "transport.scheduler.self_ms_per_op": layer_ms("transport.scheduler"),
        "faults.decisions_per_op": ledger.per_op([layers.FAULT_DECIDE]),
        "faults.dropped_per_op": network_count("dropped"),
        "faults.duplicated_per_op": network_count("duplicated"),
        "faults.self_ms_per_op": layer_ms("faults"),
        "transport.wire.round_trips_per_op": ledger.per_op([layers.WIRE_REQUEST]),
        "transport.wire.round_trip_p50_ms": trace["round_trip_p50_ms"],
        "transport.wire.codec_self_ms_per_op": ledger.self_ms(layers.WIRE_CODEC),
        "transport.wire.frame_bytes_per_op": _generator_only(
            ledger, [layers.FRAME_READ, layers.FRAME_WRITE], "units"
        ),
        "transport.wire.wait_ms_per_op": ledger.wire_wait_ms(),
        "transport.wire.peer_cpu_ms_per_op": trace["peer_cpu_s"] * 1e3 / ops,
        "transport.wire.self_ms_per_op": layer_ms("transport.wire"),
        "driver.samples": float(len(pooled)),
        "driver.op_p99_ms": (
            percentile(pooled, 0.99) if len(pooled) >= P99_MIN_SAMPLES else 0.0
        ),
        "driver.drift_ratio": statistics.median(
            drift_ratio(r["samples_ms"]) for r in untraced
        ),
        "driver.gc_ms_per_op": statistics.median(
            r["gc_ms"] / r["ops"] for r in untraced
        ),
        "driver.round_spread": round_spread([round_p50(r) for r in untraced], "lower"),
        "driver.trace_overhead_share": overhead,
        "driver.self_ms_per_op": layer_ms("driver"),
    }
    # The reference is the driver's own clock around each traced operation,
    # not the tracer's root spans, so a span with no place in an operation's
    # tree (counted on top of the thread that waited for it) shows up here.
    op_ms = round_mean(traced)
    closure = abs(sum(self_ms.values()) - op_ms) / op_ms
    metrics["driver.ledger_closure_error"] = closure
    rows = sorted(
        ((layer, value, value / op_ms) for layer, value in self_ms.items()),
        key=lambda row: -row[1],
    )
    problems = []
    if closure > LEDGER_TOLERANCE:
        problems.append(
            f"ledger does not close: layers sum to {sum(self_ms.values()):.4f} ms, "
            f"operation takes {op_ms:.4f} ms"
        )
    if any(value < 0 for value in self_ms.values()):
        problems.append("a layer's self time is negative: spans are double-counted")
    return metrics, rows, problems


def _generator_only(ledger: Ledger, names: List[str], field: str) -> float:
    """Per-op sum over the generator's own aggregates (frames cross once)."""
    known = [name for name in names if name not in ledger.missing]
    if not known:
        return MISSING
    return sum(ledger.aggregates[name][field] for name in known) / ledger.ops
