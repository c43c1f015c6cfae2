"""One round of one workload, in a process of its own.

A fresh interpreter per round gives every round clean caches and a clean
heap, so ``setup_s`` includes the imports and ``peak_rss_mb`` is the round's
own.  The job arrives as one JSON argument; the round's measurements leave as
one JSON line on stdout.  A round builds its deployment, runs the untimed
warm-up, times a fixed number of operations one by one, then runs the oracle.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter, perf_counter_ns, process_time
from typing import Any, Dict, List, Optional

import nrbench

nrbench.add_src_to_path()

from repro.crypto import modexp  # noqa: E402
from repro.crypto.signature import verification_cache_stats  # noqa: E402

from nrbench import layers  # noqa: E402
from nrbench.tracer import ROOT, Tracer  # noqa: E402
from nrbench.workloads import WORKLOADS  # noqa: E402

MAX_REPORTED_ERRORS = 5


class GcTimer:
    """Total time spent in garbage collections, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total_ns = 0
        self._started = 0

    def __call__(self, phase: str, _info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = perf_counter_ns()
        else:
            self.total_ns += perf_counter_ns() - self._started


def run_round(job: Dict[str, Any]) -> Dict[str, Any]:
    tracer = Tracer(layers.ENTRY_POINTS) if job["trace"] else None
    missing = tracer.install() if tracer is not None else []
    workload = WORKLOADS[job["workload"]](
        job["seed"], job["ops"], job["scratch"], job["trace"]
    )
    gc_timer = GcTimer()
    try:
        workload.build()
        workload.warm_up()
        workload.mark()
        memo_before = verification_cache_stats()
        setup_s = time.time() - job["spawned_at"]

        operation = workload.operation
        after = workload.after_operation
        seconds: List[float] = []
        errors: List[str] = []
        failed = 0
        gc.callbacks.append(gc_timer)
        if tracer is not None:
            tracer.start()
        cpu_started = process_time()
        window_started = perf_counter()
        for index in range(job["ops"]):
            succeeded = False
            started = perf_counter()
            try:
                if tracer is None:
                    succeeded = operation(index)
                else:
                    with tracer.operation(index):
                        succeeded = operation(index)
            except Exception:  # noqa: BLE001 - a failed operation is a result
                errors.append(traceback.format_exc(limit=3))
            seconds.append(perf_counter() - started)
            if not succeeded:
                failed += 1
            if after is not None:
                if tracer is not None:
                    tracer.active = False
                after(index)
                if tracer is not None:
                    tracer.active = True
        window_s = perf_counter() - window_started
        cpu_s = process_time() - cpu_started
        gc.callbacks.remove(gc_timer)
        if tracer is not None:
            tracer.stop()

        finished = workload.finish()
        memo_after = verification_cache_stats()
        oracle_failures = workload.check()
        peer = finished.pop("peer", None)
        result = {
            "workload": job["workload"],
            "seed": job["seed"],
            "ops": job["ops"],
            "failed": min(job["ops"], failed + len(oracle_failures)),
            "errors": (errors + oracle_failures)[:MAX_REPORTED_ERRORS],
            "exact_counts": workload.exact_counts,
            "setup_s": setup_s,
            "window_s": window_s,
            "cpu_s": cpu_s + (peer["cpu_s"] if peer else 0.0),
            "peak_rss_mb": max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                peer["peak_rss_mb"] if peer else 0.0,
            ),
            "samples_ms": [value * 1e3 for value in seconds],
            "memo": {
                key: memo_after[key] - memo_before[key] for key in ("hits", "misses")
            },
            "gc_ms": gc_timer.total_ns / 1e6,
            "modexp": modexp.backend_name(),
            **finished,
        }
        if tracer is not None:
            result["trace"] = trace_report(
                tracer, missing, workload.root_layer, peer, job
            )
        return result
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()


def trace_report(
    tracer: Tracer,
    missing: List[str],
    root_layer: str,
    peer: Optional[Dict[str, Any]],
    job: Dict[str, Any],
) -> Dict[str, Any]:
    """What the ledger needs from this round; also writes the trace file."""
    names = [entry.name for entry in tracer.entries]
    request_index = names.index(layers.WIRE_REQUEST)
    spans = tracer.spans()
    round_trips = [
        span[4] - span[3] for _, span in spans if span[2] == request_index
    ]
    report = {
        "aggregates": tracer.aggregates(),
        "missing": sorted(set(missing) | set(peer["trace"]["missing"] if peer else [])),
        "root_layer": root_layer,
        "peer": peer["trace"] if peer else None,
        "peer_cpu_s": peer["cpu_s"] if peer else 0.0,
        "round_trip_p50_ms": (
            statistics.median(round_trips) / 1e6 if round_trips else 0.0
        ),
    }
    if job.get("trace_path"):
        with open(job["trace_path"], "w") as handle:
            json.dump(
                {
                    "workload": job["workload"],
                    "seed": job["seed"],
                    "ops": job["ops"],
                    "entries": names,
                    "layers": [entry.layer for entry in tracer.entries],
                    "root_entry": ROOT,
                    "span_fields": [
                        "id", "parent", "entry", "start_ns", "end_ns", "op", "thread",
                    ],
                    # Aggregates cover every operation; whole span trees are
                    # kept for the first few (see ``tracer.SPAN_OPS``).
                    "spans": [list(span) + [ident] for ident, span in spans],
                    **report,
                },
                handle,
            )
    return report


def main() -> None:
    job = json.loads(sys.argv[1])
    result = run_round(job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
