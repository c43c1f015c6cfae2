"""Spawning rounds and assembling them into results.

A round is a fresh worker process.  A *driver run* measures one workload for
a time budget; the *suite* runs every workload for a fixed number of rounds,
interleaved round-robin so that slow drift of the machine lands on all
workloads alike, with one traced pass in their middle.  They differ only in
which rounds they start: both hand them to :func:`assemble`, which makes the
one per-workload result there is, and both return a document ``{"meta",
"workloads": {name: result}}`` that :func:`report` prints and ``compare``
reads.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

import nrbench
from nrbench import metrics, spec

Round = Dict[str, Any]

ROUND_TIMEOUT_S = 150
#: Rounds a driver run makes whatever its time budget.
MIN_ROUNDS = 3
SUITE_ROUNDS = 5
DEFAULT_SEED = 20240611


class RoundFailed(RuntimeError):
    """A worker died or timed out; there is no measurement to report."""


def run_round(workload: str, seed: int, ops: int, trace: bool) -> Round:
    """Run one round in a worker process and return what it measured."""
    os.makedirs(nrbench.OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"tmp-{workload}-", dir=nrbench.OUT_DIR)
    job = {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "trace": trace,
        "scratch": scratch,
        "trace_path": (
            os.path.join(nrbench.OUT_DIR, f"trace-{workload}.json")
            if trace
            else None
        ),
        "spawned_at": time.time(),
    }
    worker = subprocess.Popen(
        [sys.executable, "-m", "nrbench.worker", json.dumps(job)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=nrbench.ROOT,
    )
    try:
        output, _ = worker.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        raise RoundFailed(f"{workload}: round exceeded {ROUND_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if worker.returncode != 0 or not output.strip():
        raise RoundFailed(f"{workload}: worker exited with code {worker.returncode}")
    result = json.loads(output.strip().splitlines()[-1])
    result["wall_s"] = time.time() - job["spawned_at"]
    return result


def assemble(ops: int, untraced: List[Round], traced: List[Round]) -> Dict[str, Any]:
    """The result of one workload from its rounds (``traced`` may be empty).

    Per-layer numbers and the ledger come from the least disturbed traced
    round; every round counts towards ``attempted`` and ``failed``.
    """
    every = untraced + traced
    failed = sum(result["failed"] for result in every)
    attempted = sum(result["ops"] for result in every)
    problems = [error for result in every for error in result["errors"]]
    problems += metrics.count_mismatches(untraced)
    result = {
        "ops_per_round": ops,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
        "problems": problems,
        "end_to_end": metrics.end_to_end(untraced),
        "rounds": [metrics.round_values(round_) for round_ in untraced],
    }
    if traced:
        result["per_layer"], result["ledger"], ledger_problems = metrics.per_layer(
            untraced, traced
        )
        problems += ledger_problems
        result["missing_entry_points"] = metrics.least_disturbed(traced)["trace"][
            "missing"
        ]
    result["correct"] = failed == 0 and not problems
    return result


def result_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """What the benchmark contract wants as the last line of a driver run."""
    catalogue, values = (
        (spec.PER_LAYER, result["per_layer"])
        if trace
        else (spec.END_TO_END, result["end_to_end"])
    )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": metric.unit}
            for name, metric in catalogue.items()
        },
    }


def driver_run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure one workload for about ``seconds``.

    Rounds have a fixed operation count (an ageing object makes latency
    depend on how many updates came before), so the budget decides how many
    rounds run: rounds start while one more is expected to fit, and never
    fewer than ``MIN_ROUNDS``.  A traced run alternates untraced and traced
    rounds, because the tracing overhead is the difference between the two.
    """
    ops = spec.OPS[workload]
    started = time.monotonic()
    rounds: List[Round] = []
    while True:
        rounds.append(run_round(workload, seed, ops, trace and len(rounds) % 2 == 1))
        elapsed = time.monotonic() - started
        longest = max(result["wall_s"] for result in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + longest > seconds:
            break
    untraced = [result for result in rounds if "trace" not in result]
    traced = [result for result in rounds if "trace" in result]
    return {
        "meta": meta(seed, False, rounds[0]["modexp"]),
        "workloads": {workload: assemble(ops, untraced, traced)},
    }


def suite(seed: int, smoke: bool) -> Dict[str, Any]:
    """Every workload: interleaved untraced rounds around one traced pass."""
    names = spec.WORKLOADS
    rounds = 1 if smoke else SUITE_ROUNDS
    ops = {name: spec.SMOKE_OPS if smoke else spec.OPS[name] for name in names}
    untraced: Dict[str, List[Round]] = {name: [] for name in names}
    traced: Dict[str, List[Round]] = {}
    for index in range(rounds):
        for name in names:
            result = run_round(name, seed, ops[name], trace=False)
            untraced[name].append(result)
            print(
                f"round {index + 1}/{rounds} {name:14s} "
                f"p50 {metrics.round_p50(result):8.3f} ms  "
                f"setup {result['setup_s']:6.2f} s  failed {result['failed']}"
            )
        if index == rounds // 2:
            # In the middle of the rounds it is compared with, so that drift
            # of the machine's speed cancels in the tracing overhead.
            for name in names:
                traced[name] = [run_round(name, seed, ops[name], trace=True)]
                print(f"traced pass {name}")
    return {
        "meta": meta(seed, smoke, untraced[names[0]][0]["modexp"]),
        "workloads": {
            name: assemble(ops[name], untraced[name], traced[name]) for name in names
        },
    }


def meta(seed: int, smoke: bool, modexp: str) -> Dict[str, Any]:
    return {
        "seed": seed,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "modexp": modexp,
        "load_model": "closed loop, one client; simulated workloads inject no "
        "message delay, so their latency is processor time only",
    }


# -- printing ----------------------------------------------------------------------


def report(document: Dict[str, Any], out: Optional[str]) -> bool:
    """Print every metric of every workload, store the document, say if correct."""
    for name, result in document["workloads"].items():
        print_workload(name, result)
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"\nresult written to {out}")
    correct = all(result["correct"] for result in document["workloads"].values())
    print("\nall outputs correct" if correct else "\nINCORRECT OUTPUTS: see problems above")
    return correct


def print_workload(name: str, result: Dict[str, Any]) -> None:
    print(f"\n== {name}: {spec.WHY[name]}")
    print(
        f"  attempted {result['attempted']}  failed {result['failed']}  "
        f"failed_ops_share {result['failed_ops_share']:.4f}"
    )
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    for metric_name, metric in spec.END_TO_END.items():
        print(
            f"  {metric_name:48s} {result['end_to_end'][metric_name]:14.4f} "
            f"{metric.unit:6s} (bound {metric.bound:.2f})"
        )
    if "per_layer" not in result:
        return
    for metric_name, metric in spec.PER_LAYER.items():
        print(
            f"  {metric_name:48s} {result['per_layer'][metric_name]:14.4f} {metric.unit}"
        )
    print(f"\nledger {name} (self time per operation, traced round)")
    for layer, value, share in result["ledger"]:
        if value:
            print(f"  {layer:28s} {value:9.4f} ms  {share:6.1%}")
    total = sum(value for _, value, _ in result["ledger"])
    print(f"  {'sum of layers':28s} {total:9.4f} ms")
    if result["missing_entry_points"]:
        print(f"  missing_entry_points: {', '.join(result['missing_entry_points'])}")
    overhead = result["per_layer"]["driver.trace_overhead_share"]
    if overhead > metrics.TRACE_OVERHEAD_BUDGET:
        print(
            f"  note: tracing overhead {overhead:.1%} is over the "
            f"{metrics.TRACE_OVERHEAD_BUDGET:.0%} budget; the self times of cheap, "
            f"frequently called entry points are inflated"
        )
