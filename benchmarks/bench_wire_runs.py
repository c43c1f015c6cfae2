"""P9 -- one protocol instance spanning OS processes over real sockets.

``bench_multiprocess_runs.py`` launches several proposer processes, but each
simulates its *own* network: no protocol message ever crosses a process
boundary.  This benchmark is the cross-process counterpart the wire
transport exists for: a **peer process** hosts the two responder
organisations of every sharing group, **N proposer processes** each host one
proposer organisation, and every proposal/decision/outcome message travels
through ``WireNetwork`` frames over 127.0.0.1 TCP -- one protocol instance
genuinely spanning processes.

Each proposer drives its updates as *concurrent* ``propose_update_async``
runs (the async engine on a wall clock, each run deadline-guarded), so the
peer process validates interleaved runs from several organisations at once.

Measured and gated:

* ``messages_per_update`` / ``bytes_per_update`` from the proposers'
  sender-side statistics -- asserted in-bench to match a same-topology
  simulated reference (messages exactly, bytes within a whisker for
  wall-clock timestamp width), and gated by ``run_benchmarks.py --check``
  like every other protocol-cost counter;
* aggregate cross-process updates/second (timing, not gated).

The file doubles as the worker program::

    python bench_wire_runs.py --role peer     --dir D --proposers N --updates U
    python bench_wire_runs.py --role proposer --dir D --index I    --updates U
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PEER_PARTIES = ["urn:wire:responder0", "urn:wire:responder1"]
PROPOSERS = 2
UPDATES_PER_PROPOSER = 4
RUN_DEADLINE_SECONDS = 120.0
REPO_ROOT = Path(__file__).resolve().parent.parent


def proposer_uri(index: int) -> str:
    return f"urn:wire:proposer{index}"


def object_id(index: int, update: int) -> str:
    # One object per run: the concurrency under test is run interleaving
    # across processes, not base-version contention on one replica.
    return f"wire-doc-{index}-{update}"


# -- peer (responder-hosting) process -----------------------------------------


def peer_main(directory: str, proposers: int, updates: int) -> None:
    from repro import TrustDomain
    from repro.transport.wire import WireTransport

    all_parties = PEER_PARTIES + [proposer_uri(i) for i in range(proposers)]
    transport = WireTransport(
        local_parties=PEER_PARTIES,
        await_remote_credentials=False,  # spokes introduce themselves
    )
    domain = TrustDomain.create(all_parties, transport=transport, scheme="hmac")
    for index in range(proposers):
        members = [proposer_uri(index)] + PEER_PARTIES
        for update in range(updates):
            domain.share_object(object_id(index, update), {"v": 0}, members)
    # Proposers poll for this file: write-then-rename so they can never
    # observe a partially written document.
    endpoint_path = os.path.join(directory, "peer.json")
    with open(endpoint_path + ".tmp", "w") as handle:
        json.dump({"host": transport.host, "port": transport.port}, handle)
    os.rename(endpoint_path + ".tmp", endpoint_path)

    stop_path = os.path.join(directory, "stop")
    while not os.path.exists(stop_path):
        time.sleep(0.05)

    responder = domain.organisation(PEER_PARTIES[0])
    result = {
        "evidence_records": responder.evidence_store.total_records(),
        "served_frames": transport.network.server.frames_served,
        "connections_accepted": transport.network.server.connections_accepted,
    }
    with open(os.path.join(directory, "peer-result.json"), "w") as handle:
        json.dump(result, handle)
    transport.close()


# -- proposer processes --------------------------------------------------------


def proposer_main(directory: str, index: int, updates: int) -> None:
    from repro import TrustDomain
    from repro.transport.wire import WireTransport

    peer_path = os.path.join(directory, "peer.json")
    deadline = time.monotonic() + 60
    while not os.path.exists(peer_path):
        assert time.monotonic() < deadline, "peer process never came up"
        time.sleep(0.05)
    with open(peer_path) as handle:
        peer = json.load(handle)

    me = proposer_uri(index)
    transport = WireTransport(
        local_parties=[me],
        peers={uri: (peer["host"], peer["port"]) for uri in PEER_PARTIES},
    )
    domain = TrustDomain.create(
        [me] + PEER_PARTIES, transport=transport, scheme="hmac"
    )
    members = [me] + PEER_PARTIES
    for update in range(updates):
        domain.share_object(object_id(index, update), {"v": 0}, members)
    proposer = domain.organisation(me)

    started = time.perf_counter()
    futures = [
        proposer.propose_update_async(
            object_id(index, update), {"v": update + 1}, deadline=RUN_DEADLINE_SECONDS
        )
        for update in range(updates)
    ]
    outcomes = [future.result(timeout=180) for future in futures]
    elapsed = time.perf_counter() - started
    for outcome in outcomes:
        assert outcome.agreed, outcome.reason
    scheduler = domain.retry_scheduler
    assert scheduler.wait_quiescent(timeout=30), scheduler.quiescence()

    stats = domain.network.statistics
    result = {
        "index": index,
        "updates": updates,
        "elapsed_seconds": elapsed,
        "messages_sent": stats.messages_sent,
        "messages_delivered": stats.messages_delivered,
        "messages_dropped": stats.messages_dropped,
        "bytes_delivered": stats.bytes_delivered,
        "retries": sum(stats.failed_attempts_per_destination().values()),
        "evidence_records": proposer.evidence_store.total_records(),
    }
    with open(os.path.join(directory, f"result-{index}.json"), "w") as handle:
        json.dump(result, handle)
    transport.close()


# -- in-process simulated reference -------------------------------------------


def simulated_reference(updates: int):
    """Same topology on the simulator (wall clock, so byte sizes compare)."""
    from repro import TrustDomain
    from repro.clock import SystemClock

    parties = [proposer_uri(0)] + PEER_PARTIES
    domain = TrustDomain.create(parties, scheme="hmac", clock=SystemClock())
    for update in range(updates):
        domain.share_object(object_id(0, update), {"v": 0})
    proposer = domain.organisation(parties[0])
    for update in range(updates):
        outcome = proposer.propose_update(object_id(0, update), {"v": update + 1})
        assert outcome.agreed, outcome.reason
    stats = domain.network.statistics
    return (
        stats.messages_delivered / updates,
        stats.bytes_delivered / updates,
    )


# -- benchmark entry point -----------------------------------------------------


def launch_wave(proposers: int, updates: int):
    directory = tempfile.mkdtemp(prefix="bench-wire-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)

    def spawn(arguments):
        return subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), *arguments],
            env=env,
            cwd=str(REPO_ROOT),
        )

    processes = []
    try:
        peer = spawn(
            [
                "--role", "peer", "--dir", directory,
                "--proposers", str(proposers), "--updates", str(updates),
            ]
        )
        processes.append(peer)
        workers = [
            spawn(
                [
                    "--role", "proposer", "--dir", directory,
                    "--index", str(index), "--updates", str(updates),
                ]
            )
            for index in range(proposers)
        ]
        processes.extend(workers)
        exit_codes = [worker.wait(timeout=300) for worker in workers]
        assert all(code == 0 for code in exit_codes), exit_codes
        Path(directory, "stop").touch()
        assert peer.wait(timeout=60) == 0
        results = []
        for index in range(proposers):
            with open(os.path.join(directory, f"result-{index}.json")) as handle:
                results.append(json.load(handle))
        with open(os.path.join(directory, "peer-result.json")) as handle:
            peer_result = json.load(handle)
        return results, peer_result
    finally:
        # A failed or timed-out wave must not leak pollers: the peer loops
        # on the stop file forever if it is never told to go.
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        shutil.rmtree(directory, ignore_errors=True)


def test_wire_cross_process_runs(benchmark):
    """N proposer processes drive concurrent async runs against a peer process."""
    results, peer_result = benchmark.pedantic(
        lambda: launch_wave(PROPOSERS, UPDATES_PER_PROPOSER), rounds=1, iterations=1
    )
    total_updates = sum(result["updates"] for result in results)
    total_messages = sum(result["messages_delivered"] for result in results)
    total_bytes = sum(result["bytes_delivered"] for result in results)
    slowest = max(result["elapsed_seconds"] for result in results)
    messages_per_update = total_messages / total_updates
    bytes_per_update = total_bytes / total_updates

    # Crossing process boundaries must cost exactly what the simulator
    # charges: same delivered-message count, same canonical bytes (within a
    # sliver for wall-clock timestamp digit width), or the wire is not a
    # pure locality change.  Delivered counters are retry-invariant, so a
    # rare transient on loopback cannot flake the equality.
    ref_messages, ref_bytes = simulated_reference(UPDATES_PER_PROPOSER)
    assert messages_per_update == ref_messages, (messages_per_update, ref_messages)
    assert abs(bytes_per_update - ref_bytes) <= ref_bytes * 0.01, (
        bytes_per_update,
        ref_bytes,
    )

    benchmark.extra_info["proposer_processes"] = PROPOSERS
    benchmark.extra_info["updates_per_proposer"] = UPDATES_PER_PROPOSER
    benchmark.extra_info["messages_per_update"] = messages_per_update
    benchmark.extra_info["bytes_per_update"] = round(bytes_per_update, 1)
    benchmark.extra_info["aggregate_updates_per_second"] = round(
        total_updates / slowest, 2
    )
    benchmark.extra_info["peer_frames_served"] = peer_result["served_frames"]
    benchmark.extra_info["peer_evidence_records"] = peer_result["evidence_records"]
    benchmark.extra_info["total_retries"] = sum(r["retries"] for r in results)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=["peer", "proposer"], required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--proposers", type=int, default=PROPOSERS)
    parser.add_argument("--updates", type=int, default=UPDATES_PER_PROPOSER)
    arguments = parser.parse_args()
    if arguments.role == "peer":
        peer_main(arguments.dir, arguments.proposers, arguments.updates)
    else:
        proposer_main(arguments.dir, arguments.index, arguments.updates)
