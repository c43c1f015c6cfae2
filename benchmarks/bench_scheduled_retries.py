"""P7 -- the delivery engine under loss: backoffs overlap across concurrent runs.

Under lossy links a reliable channel waits out exponential backoffs between
delivery attempts.  Each wait is a timer on the network's
:class:`repro.transport.scheduler.RetryScheduler`, not a sleep, so a single
worker that starts N fan-outs and then waits interleaves them and pays
roughly the *longest chain* of backoffs rather than their sum.

Elapsed time is measured on the simulated clock, which makes the numbers
deterministic (the fault model is seeded and everything is driven from one
thread).
"""

import pytest

from repro.clock import SimulatedClock
from repro.transport.delivery import ReliableChannel, RetryPolicy
from repro.transport.network import FaultModel, SimulatedNetwork

#: Per-fan-out width: wide enough that nearly every run sees >= 1 drop at a
#: 10% drop rate, so the overlap axis measures retry waits, not luck.
ENTRIES_PER_RUN = 16
DROP_PROBABILITY = 0.10
SEED = b"bench-3"

POLICY = RetryPolicy(max_attempts=8, backoff_seconds=0.05, backoff_multiplier=2.0)


def lossy_network():
    clock = SimulatedClock()
    network = SimulatedNetwork(
        FaultModel(drop_probability=DROP_PROBABILITY, seed=SEED), clock=clock
    )
    for index in range(ENTRIES_PER_RUN):
        network.register(f"urn:dst{index}", lambda message: "ok")
    return clock, network


def run_entries(run):
    return [(f"urn:dst{i}", "op", {"run": run, "i": i}) for i in range(ENTRIES_PER_RUN)]


def concurrent_elapsed(runs):
    """One worker starts N fan-outs, then waits: their backoffs overlap."""
    clock, network = lossy_network()
    waves = [
        ReliableChannel(network, f"urn:run{run}", POLICY).send_batch_scheduled(
            run_entries(run)
        )
        for run in range(runs)
    ]
    assert all(result.delivered for wave in waves for result in wave.result())
    return clock.now(), network.statistics


@pytest.mark.parametrize("concurrent_runs", [1, 4])
def test_retry_wait_overlap(benchmark, concurrent_runs):
    """Simulated time to complete N concurrent lossy fan-outs."""
    elapsed, stats = benchmark(lambda: concurrent_elapsed(concurrent_runs))
    benchmark.extra_info["concurrent_runs"] = concurrent_runs
    benchmark.extra_info["drop_probability"] = DROP_PROBABILITY
    benchmark.extra_info["entries_per_run"] = ENTRIES_PER_RUN
    benchmark.extra_info["scheduled_backoff_seconds"] = round(elapsed, 3)
    benchmark.extra_info["retries_scheduled"] = sum(
        stats.failed_attempts_per_destination().values()
    )
    # Every entry of every run is delivered exactly once.
    assert stats.deliveries_per_destination == {
        f"urn:dst{index}": concurrent_runs for index in range(ENTRIES_PER_RUN)
    }


def test_scheduled_mode_zero_drop_parity(benchmark):
    """A healthy fan-out: the wave completes inline on the first attempt.

    ``timers_scheduled == 0`` verifies the timer heap stays entirely off the
    happy path.
    """
    network = SimulatedNetwork(clock=SimulatedClock())
    for index in range(ENTRIES_PER_RUN):
        network.register(f"urn:dst{index}", lambda message: "ok")
    channel = ReliableChannel(network, "urn:src", POLICY)

    results = benchmark(lambda: channel.send_batch_scheduled(run_entries(0)).result())
    assert all(result.delivered for result in results)
    assert network.retry_scheduler.timers_scheduled == 0
    benchmark.extra_info["entries_per_run"] = ENTRIES_PER_RUN
