"""P8 -- multi-process concurrent runs over the file-backed evidence store.

The concurrent-runs benchmark (P6) drives N proposers from one process, so
interceptor concurrency is bounded by one interpreter's GIL and the evidence
stores stay in memory.  This driver launches N *proposer processes*; each
builds its own 4-party trust domain (async run-multiplexing engine enabled,
its own seeded lossy fault model) whose organisations persist evidence
through :class:`repro.persistence.storage.FileBackend` directories shared
across the processes -- the same owner's store in every process appends into
the same directory, which exercises true cross-interceptor concurrency and
the file backend's index under contention, and retires the multi-process
follow-up from the ROADMAP.

Each worker drives its updates as *concurrent* ``propose_update_async``
runs, every run carrying a protocol deadline, plus one run it deliberately
aborts -- so cancellation, deadline timers and continuation interleaving are
exercised while the file backend is contended by the sibling processes (the
PR 4 follow-up combining the async engine with this driver).  After the
wave, the new scheduler quiescence criterion must report a fully settled
engine: no pending timers, holds or queued continuations.

The file doubles as the worker program: ``python bench_multiprocess_runs.py
--worker --dir D --index I --updates N`` runs one proposer process and
writes ``result-I.json`` into ``D``.  The pytest-benchmark entry point
spawns the workers, waits for the wave, and reports aggregate throughput.

The durable variant (``test_multiprocess_durable_runs_survive_worker_kill``)
re-runs the wave with the run journal enabled and one worker SIGKILLed at
its first ``after-journal-proposed`` barrier, then restarted with
``--recover``: the restarted process replays its journal (recovery-abort,
the crash landed before the commit barrier) and still completes its full
wave, so the kill costs availability, never divergence.  The plain wave's
protocol-cost counters stay gated against the committed baseline -- with
``durable_runs`` off the journal seam must be free.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PARTIES = 4
UPDATES_PER_PROCESS = 6
DROP_PROBABILITY = 0.05
KILL_STAGE = "after-journal-proposed"
REPO_ROOT = Path(__file__).resolve().parent.parent


# -- worker process -----------------------------------------------------------


def worker_main(
    directory: str,
    index: int,
    updates: int,
    durable: bool = False,
    kill: bool = False,
    recover: bool = False,
) -> None:
    from repro import FaultModel, TrustDomain
    from repro.persistence.evidence_store import EvidenceStore
    from repro.persistence.storage import FileBackend

    uris = [f"urn:mp:party{i}" for i in range(PARTIES)]

    def backend_for(uri: str) -> FileBackend:
        # One directory per *owner*, shared by every process: concurrent
        # interceptors for the same organisation append into one index.
        return FileBackend(os.path.join(directory, "evidence", uri.split(":")[-1]))

    def journal_backend_for(uri: str) -> FileBackend:
        return FileBackend(
            os.path.join(directory, f"journal-{index}", uri.split(":")[-1])
        )

    domain = TrustDomain.create(
        uris,
        scheme="hmac",
        fault_model=FaultModel(
            drop_probability=DROP_PROBABILITY,
            max_consecutive_drops=3,
            seed=b"mp-%d" % index,
        ),
        evidence_backend_factory=backend_for,
        durable_runs=durable,
        run_journal_backend_factory=journal_backend_for if durable else None,
    )
    # One object per update so the concurrent async runs never contend on
    # base versions -- the contention under test is the shared file backend.
    for value in range(1, updates + 1):
        domain.share_object(f"mp-doc-{index}-{value}", {"counter": 0})
    domain.share_object(f"mp-doc-{index}-aborted", {"counter": 0})
    proposer = domain.organisation(uris[index % PARTIES])

    recovered_actions = {}
    if recover:
        # Second life: the journal from the killed first life must replay.
        # The SIGKILL landed before any commit barrier, so every open run
        # recovers by aborting -- nothing was applied anywhere, and the full
        # wave below still completes from a clean slate.
        recovered_actions = proposer.recover_runs()
        assert recovered_actions, "killed worker left no journaled runs"
        assert set(recovered_actions.values()) == {"aborted"}, recovered_actions
    if kill:
        from repro.core.sharing import set_run_fault_injector

        set_run_fault_injector(
            lambda stage, run: os.kill(os.getpid(), signal.SIGKILL)
            if stage == KILL_STAGE
            else None
        )

    started = time.perf_counter()
    # All runs in flight at once on the continuation engine, each with a
    # protocol deadline riding the retry scheduler (generous: the deadline
    # path is exercised, expiry is not expected).
    futures = [
        proposer.propose_update_async(
            f"mp-doc-{index}-{value}", {"counter": value}, deadline=300.0
        )
        for value in range(1, updates + 1)
    ]
    # One more run is aborted mid-flight: its timers must be withdrawn and
    # its future must resolve not-agreed without disturbing the others.
    aborted_future = proposer.propose_update_async(
        f"mp-doc-{index}-aborted", {"counter": 1}, deadline=300.0
    )
    aborted_future.abort("cancelled by the benchmark")
    outcomes = [future.result(timeout=240) for future in futures]
    aborted_outcome = aborted_future.result(timeout=240)
    elapsed = time.perf_counter() - started

    for outcome in outcomes:
        assert outcome.agreed, outcome.reason
    scheduler = domain.retry_scheduler
    # Aborting after dispatch may lose the race with completion; either way
    # the run must leave no timers behind.
    assert scheduler.pending_timers_for_run(aborted_outcome.run_id) == 0
    # The engine must be fully quiescent: no timers, holds or queued
    # continuations survive the wave (the new quiescence criterion).
    assert scheduler.wait_quiescent(timeout=30), scheduler.quiescence()
    last_run_id = outcomes[-1].run_id

    # Reopen the proposer's store from disk: the records this process wrote
    # must be recoverable by a fresh interceptor process.
    reopened = EvidenceStore(owner=proposer.uri, backend=backend_for(proposer.uri))
    recovered = len(reopened.evidence_for_run(last_run_id))
    assert recovered >= 2, f"run {last_run_id} not recoverable from disk: {recovered}"

    stats = domain.network.statistics
    result = {
        "index": index,
        "updates": updates,
        "elapsed_seconds": elapsed,
        "evidence_records": proposer.evidence_store.total_records(),
        "evidence_bytes": proposer.evidence_store.storage_bytes(),
        "recovered_records_last_run": recovered,
        "messages_sent": stats.messages_sent,
        "retries": sum(stats.failed_attempts_per_destination().values()),
        "recovered_runs": len(recovered_actions),
    }
    with open(os.path.join(directory, f"result-{index}.json"), "w") as handle:
        json.dump(result, handle)


# -- benchmark entry point ----------------------------------------------------


def _spawn_worker(directory: str, env, index: int, updates: int, *flags: str):
    return subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--worker",
            "--dir",
            directory,
            "--index",
            str(index),
            "--updates",
            str(updates),
            *flags,
        ],
        env=env,
        cwd=str(REPO_ROOT),
    )


def launch_wave(processes: int, updates: int, kill_worker: bool = False):
    directory = tempfile.mkdtemp(prefix="bench-mp-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    try:
        procs = []
        for index in range(processes):
            flags = ["--durable"] if kill_worker else []
            if kill_worker and index == 0:
                flags.append("--kill")
            procs.append(_spawn_worker(directory, env, index, updates, *flags))
        exit_codes = [proc.wait(timeout=300) for proc in procs]
        if kill_worker:
            # Worker 0 SIGKILLed itself at its first journal barrier; the
            # others must be unaffected.  Restart it over the same journal
            # directory and let it recover, then run its full wave.
            assert exit_codes[0] == -signal.SIGKILL, exit_codes
            assert all(code == 0 for code in exit_codes[1:]), exit_codes
            restarted = _spawn_worker(
                directory, env, 0, updates, "--durable", "--recover"
            )
            assert restarted.wait(timeout=300) == 0
        else:
            assert all(code == 0 for code in exit_codes), exit_codes
        results = []
        for index in range(processes):
            with open(os.path.join(directory, f"result-{index}.json")) as handle:
                results.append(json.load(handle))
        return results
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def test_multiprocess_concurrent_runs(benchmark):
    """A wave of 4 proposer processes against shared file-backed stores."""
    import pytest  # noqa: F401 - imported for parity with the other benches

    processes = 4
    # pedantic mode ignores the driver's --benchmark-min-rounds pinning, so
    # pin one round explicitly: one wave is 4 interpreters x 6 protocol
    # updates -- heavy enough that CI smoke must not pay it twice.
    results = benchmark.pedantic(
        lambda: launch_wave(processes, UPDATES_PER_PROCESS), rounds=1, iterations=1
    )
    total_updates = sum(result["updates"] for result in results)
    slowest = max(result["elapsed_seconds"] for result in results)
    benchmark.extra_info["processes"] = processes
    benchmark.extra_info["parties"] = PARTIES
    benchmark.extra_info["updates_per_process"] = UPDATES_PER_PROCESS
    benchmark.extra_info["drop_probability"] = DROP_PROBABILITY
    benchmark.extra_info["aggregate_updates_per_second"] = round(
        total_updates / slowest, 2
    )
    benchmark.extra_info["evidence_records_per_process"] = results[0][
        "evidence_records"
    ]
    benchmark.extra_info["total_retries"] = sum(
        result["retries"] for result in results
    )


def test_multiprocess_durable_runs_survive_worker_kill(benchmark):
    """The same wave with run journals on and one worker killed mid-run.

    Measures the cost of durability under an actual process kill: worker 0
    dies at its first ``after-journal-proposed`` barrier, restarts over its
    journal directory, recovery-aborts the orphaned run, and still drives
    its complete wave.  The aggregate throughput therefore includes one
    full restart-and-recover cycle.
    """
    processes = 4
    results = benchmark.pedantic(
        lambda: launch_wave(processes, UPDATES_PER_PROCESS, kill_worker=True),
        rounds=1,
        iterations=1,
    )
    total_updates = sum(result["updates"] for result in results)
    slowest = max(result["elapsed_seconds"] for result in results)
    benchmark.extra_info["processes"] = processes
    benchmark.extra_info["killed_workers"] = 1
    benchmark.extra_info["kill_stage"] = KILL_STAGE
    benchmark.extra_info["recovered_runs"] = results[0]["recovered_runs"]
    benchmark.extra_info["aggregate_updates_per_second"] = round(
        total_updates / slowest, 2
    )
    assert results[0]["recovered_runs"] >= 1
    assert all(result["recovered_runs"] == 0 for result in results[1:])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--worker", action="store_true", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--updates", type=int, default=UPDATES_PER_PROCESS)
    parser.add_argument("--durable", action="store_true")
    parser.add_argument("--kill", action="store_true")
    parser.add_argument("--recover", action="store_true")
    arguments = parser.parse_args()
    worker_main(
        arguments.dir,
        arguments.index,
        arguments.updates,
        durable=arguments.durable,
        kill=arguments.kill,
        recover=arguments.recover,
    )
