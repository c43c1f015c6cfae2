"""P8 -- run multiplexing: many concurrent runs from one thread.

A run that is waiting on deliveries exists only as scheduler timers and
completion callbacks (``propose_update_async`` -> ``RunFuture``), so hundreds
of concurrent runs stay in flight while one thread waits and drives them.

Two axes are measured on the simulated clock (deterministically seeded, so
CI can gate on counters without wall-clock noise):

* **Throughput under loss** -- 256 concurrent runs at a 10% drop rate,
  started from one thread; their retry backoffs overlap in simulated time.
* **Protocol cost** -- at zero drop, ``messages_per_update`` /
  ``bytes_per_update`` are recorded for the regression gate.
"""

import pytest

from repro import FaultModel, TrustDomain

from benchmarks.conftest import CallCounter

PARTIES = 4
CONCURRENT_RUNS = 256
DROP_PROBABILITY = 0.10
SEED = b"bench-4"


def build_domain(drop, objects):
    domain = TrustDomain.create(
        [f"urn:bench:p{i}" for i in range(PARTIES)],
        scheme="hmac",
        fault_model=FaultModel(drop_probability=drop, seed=SEED) if drop else None,
    )
    for index in range(objects):
        domain.share_object(f"obj-{index}", {"v": 0})
    return domain


def async_multiplexed():
    """256 async runs in flight from one thread; their backoffs overlap."""
    domain = build_domain(drop=DROP_PROBABILITY, objects=CONCURRENT_RUNS)
    proposer = domain.organisation("urn:bench:p0")
    started = domain.network.clock.now()
    futures = [
        proposer.propose_update_async(f"obj-{index}", {"v": 1})
        for index in range(CONCURRENT_RUNS)
    ]
    outcomes = [future.result(timeout=600) for future in futures]
    elapsed = domain.network.clock.now() - started
    assert all(outcome.agreed for outcome in outcomes)
    assert domain.retry_scheduler.pending_timers() == 0
    return elapsed, domain.network.statistics


def test_concurrent_run_throughput(benchmark):
    """Simulated time for 256 lossy runs started from one thread."""
    elapsed, stats = benchmark.pedantic(async_multiplexed, rounds=1, iterations=1)
    benchmark.extra_info["concurrent_runs"] = CONCURRENT_RUNS
    benchmark.extra_info["drop_probability"] = DROP_PROBABILITY
    benchmark.extra_info["parties"] = PARTIES
    benchmark.extra_info["async_simulated_seconds"] = round(elapsed, 3)
    benchmark.extra_info["runs_per_simulated_second_async"] = round(
        CONCURRENT_RUNS / elapsed, 2
    )
    # Every run delivered its proposal and its outcome to every peer.
    assert set(stats.deliveries_per_destination.values()) == {2 * CONCURRENT_RUNS}


@pytest.mark.parametrize("parties", [4])
def test_async_run_protocol_cost(benchmark, parties):
    """Zero-drop protocol cost of an update through its future (gated counters)."""
    domain = build_domain(drop=0.0, objects=1)
    proposer = domain.organisation("urn:bench:p0")
    counter = {"n": 0}

    def propose():
        counter["n"] += 1
        payload = {"counter": counter["n"], "payload": {"data": "x" * 100}}
        outcome = proposer.propose_update_async("obj-0", payload).result(timeout=120)
        assert outcome.agreed
        return outcome

    counted = CallCounter(propose)
    before = domain.network.statistics.snapshot()
    benchmark(counted)
    delta = domain.network.statistics.delta(before)
    assert domain.retry_scheduler.timers_scheduled == 0
    benchmark.extra_info["parties"] = parties
    benchmark.extra_info["messages_per_update"] = round(
        delta.messages_sent / counted.calls, 2
    )
    benchmark.extra_info["bytes_per_update"] = round(
        delta.bytes_delivered / counted.calls
    )
